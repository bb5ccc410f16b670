// Command flowbench is flowsched's end-to-end and per-layer benchmark.
//
// It runs one seeded workload per invocation:
//
//	drain_verified   streaming runtime drain, shallow capacitated backlog,
//	                 OldestFirst with windowed verification
//	daemon_ingest    in-process flowschedd, HTTP POST /flows open loop, then saturating
//	offline_solvers  core.SolveART and core.SolveMRT on small Poisson instances
//
// and prints, as the last line of standard output, one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Every workload reports the same metrics, each meaning the same thing for
// a user whichever way the flows reach the scheduler. With --trace 0 they
// are the end-to-end ones:
//
//	setup_s          readying the program to take flows: stream.New; daemon.New,
//	                 listener and Start; reading the instances' JSON
//	mem_peak_mb      peak resident memory of the run
//	flows_per_s      flows scheduled per second: completed flows over Run's
//	                 wall time; flows the daemon accepts under saturating load;
//	                 a fixed suite's flows over its fastest pass's wall time,
//	                 two solvers at once
//	latency_ms_p50   latency of one scheduling operation: the interval between
//	latency_ms_p99   rounds; a POST /flows at a fixed offered rate; one suite
//	                 instance's fastest SolveART plus SolveMRT
//	resp_rounds_avg  the paper's objectives for the schedule produced, in
//	resp_rounds_max  rounds. The average: over the drain, the daemon's
//	                 fixed-rate phase (median over phases), the ART schedules.
//	                 The maximum: each slice's largest response, averaged over
//	                 the drain's 16 slices of its arrival stream, the median
//	                 over the daemon's 2 s phases, and offline the MRT
//	                 schedules' rho averaged over instances
//
// With --trace 1 the same workload runs with wrappers around each layer's
// public entry points (sources, policies, the HTTP handler, the instance
// reader, the core phases); the spans are kept in memory, written to
// --spans-dir at the end, and reduced to per-layer metrics:
//
//	intake_ns_per_flow    the layer flows enter by: workload sources'
//	                      PullBatch; the daemon's handler called directly;
//	                      switchnet.ReadInstance
//	decide_ns_per_flow    the layer that chooses the schedule: the stream
//	                      policy's Pick (drain and daemon); core.IterativeRound,
//	                      MRTLowerBound and SolveTimeConstrained (offline)
//	heap_allocs_per_flow  heap allocations and bytes of the program's calls
//	heap_bytes_per_flow   (Run; direct handler calls; SolveART and SolveMRT)
//	trace_overhead_ratio  traced over untraced time
//
// Finer per-layer figures (verifier windows, round self time, network
// time, the solver phases one by one) are printed as "#" lines. Inputs are
// generated from --seed before anything is timed; a digest of them is
// printed so two commits can be shown to have run identical inputs.
//
// Build and run it through run.sh from the repository root:
//
//	bash flowbench/run.sh --workload drain_verified --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the settings one workload run receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks every workload to a size that runs in well under a
	// second; the smoke test uses it.
	small bool
	// spansDir receives the traced run's span file.
	spansDir string
	// info receives the human-readable lines printed before the result.
	info func(format string, args ...any)
}

// budget is the measuring time of one run.
func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// run is the outcome of one workload run: the result line plus whatever
// check failed, if any.
type run struct {
	res  result
	errs []string
}

func newRun() *run { return &run{res: result{Correct: true, Metrics: map[string]metric{}}} }

func (r *run) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

// check records a failed output check; any failure makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Correct = false
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// procs is the GOMAXPROCS every workload runs at, fixed so results do not
// depend on the host's processor count. Each workload keeps two processors
// busy: the verifier goroutine beside the round loop, the HTTP server
// beside its clients, two solvers.
const procs = 2

var workloads = map[string]func(opts) (*run, error){
	"drain_verified":  func(o opts) (*run, error) { return runDrain(drainVerified, o) },
	"daemon_ingest":   runIngest,
	"offline_solvers": runOffline,
}

func main() {
	name := flag.String("workload", "", "workload to run (drain_verified, daemon_ingest, offline_solvers)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory for the traced run's span file")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "flowbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "flowbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := opts{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spansDir: *spansDir,
		info:     func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) },
	}
	runtime.GOMAXPROCS(procs)
	o.info("workload %s seed %d seconds %g trace %d", *name, *seed, *seconds, *trace)
	o.info("host %s", hostShape())

	r, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "flowbench: %s: check failed: %s\n", *name, e)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		os.Exit(1)
	}
}
