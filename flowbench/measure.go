package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched/internal/switchnet"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs in place; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxStolen is the share of the machine's CPU time the hypervisor may take
// during a measurement before the measurement is set aside. On a shared
// virtual machine a burst of steal slows a drain or a second of POSTs by
// whatever the neighbours happen to do, which says nothing about the
// program; the runs keep such samples only when too few clean ones remain.
const maxStolen = 0.02

// stealTime returns the cumulative CPU time the hypervisor has taken from
// this machine's processors (the steal column of /proc/stat, in 10 ms
// ticks), or 0 where it is not reported.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stolenShare is the share of all processors' time over wall time d that
// the hypervisor took between two stealTime readings.
func stolenShare(s0, s1, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(s1-s0) / (float64(d) * float64(runtime.NumCPU()))
}

// cleanOr returns the clean samples when there are at least n of them,
// else all of them.
func cleanOr(clean, all []float64, n int) []float64 {
	if len(clean) >= n {
		return clean
	}
	return all
}

// heapUse is the heap allocations and allocated bytes the process has made
// so far.
func heapUse() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// memPeakMB is the process's peak resident set size in MB (VmHWM), or,
// where /proc is unavailable, the Go runtime's total obtained memory.
func memPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostShape describes the machine and build the numbers came from: CPU
// model, logical CPUs, GOMAXPROCS, Go version, and the source revision —
// the VCS commit when the build saw one, otherwise a digest of the Go
// sources under the working directory.
func hostShape() string {
	shape := struct {
		CPU        string `json:"cpu"`
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
	}{cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision()}
	b, _ := json.Marshal(shape) // a struct of strings and ints always encodes
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// flowDigest hashes flows in order, so equal digests mean identical inputs.
func flowDigest(h io.Writer, flows []switchnet.Flow) {
	var b [32]byte
	for _, f := range flows {
		binary.LittleEndian.PutUint64(b[0:], uint64(f.In))
		binary.LittleEndian.PutUint64(b[8:], uint64(f.Out))
		binary.LittleEndian.PutUint64(b[16:], uint64(f.Demand))
		binary.LittleEndian.PutUint64(b[24:], uint64(f.Release))
		h.Write(b[:])
	}
}

// scheduleDigest hashes a round assignment.
func scheduleDigest(rounds []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rounds {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h.Write(b[:])
	}
	return h.Sum64()
}

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program's public API.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	run    int32 // spans of one drain, phase or solve pass share a run id
	count  int64 // work the call handled: flows, pending flows, ...
}

// tracer keeps spans in memory; write dumps them when the run ends. Its
// methods may be called from several goroutines (the daemon's handlers and
// its round loop); the fields are read only once those have finished.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int32
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span whose end is filled in by close; it returns the
// span's index.
func (t *tracer) open(name string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, run: t.run})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = t.now()
	t.spans[id].count = count
}

// add records a finished span.
func (t *tracer) add(name string, start, end int64, parent int32, count int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, run: t.run, count: count})
	return int32(len(t.spans) - 1)
}

// layerStats aggregates spans of one name: how many, their total count,
// and their self times (duration minus the time their child spans cover).
type layerStats struct {
	n     int
	count int64
	self  []float64 // ns, one per span
}

func (l layerStats) selfTotal() float64 {
	s := 0.0
	for _, x := range l.self {
		s += x
	}
	return s
}

// stats reduces the recorded spans to per-name self times and counts.
func (t *tracer) stats() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerStats{}
			out[s.name] = l
		}
		l.n++
		l.count += s.count
		l.self = append(l.self, float64(s.end-s.start-child[i]))
	}
	return out
}

// write dumps the spans as tab-separated lines
// (id, name, start_ns, end_ns, parent, run, count) to dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString("id\tname\tstart_ns\tend_ns\tparent\trun\tcount\n")
	for i, s := range t.spans {
		fmt.Fprintf(&buf, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.run, s.count)
	}
	if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
