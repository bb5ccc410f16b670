#!/usr/bin/env bash
# Builds the flowsched benchmark from the sources in this checkout and runs
# it with the given arguments, e.g.
#
#   bash flowbench/run.sh --workload drain_verified --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) and the traced run's span files stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/flowbench" && go build -o "$out/flowbench" .) >&2
# The benchmark keeps the memory it frees mapped (MADV_FREE) rather than
# returning it to the kernel page by page: on a virtual machine each page
# the allocator touches again then costs a fault whose price follows the
# host's load, which made the solvers' timings (their heap turns over tens
# of megabytes per instance) swing by a fifth between runs.
GODEBUG=madvdontneed=0 exec "$out/flowbench" "$@"
