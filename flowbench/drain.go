package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// drainSpec is a streaming-runtime drain workload: a pre-generated arrival
// stream replayed through workload.InstanceSource into stream.New/Run.
type drainSpec struct {
	name        string
	ports, cap  int
	m           float64 // mean arrivals per round
	alpha       float64 // > 0: bounded-Pareto demands on [1, maxDemand]
	maxDemand   int
	flows       int
	policy      func() stream.Policy
	maxPending  int
	verifyEvery int
}

// drainVerified runs a capacitated switch at about 0.8 load with
// heavy-tailed demands, so the backlog stays shallow and the age-ordered
// pick and the windowed verifier dominate.
var drainVerified = drainSpec{
	name: "drain_verified", ports: 150, cap: 4, m: 300, alpha: 1.3, maxDemand: 4, flows: 1 << 20,
	policy:     func() stream.Policy { return &stream.OldestFirst{} },
	maxPending: 2048, verifyEvery: 256,
}

// shrink scales a drain down for the smoke test, keeping its load.
func (s drainSpec) shrink() drainSpec {
	s.m = s.m * 16 / float64(s.ports)
	s.ports = 16
	s.flows = 4000
	s.maxPending = min(s.maxPending, 256)
	return s
}

func genDrain(s drainSpec, seed int64) *switchnet.Instance {
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: s.ports, Cap: s.cap, M: s.m, MaxFlows: int64(s.flows),
		Alpha: s.alpha, MinDemand: 1, MaxDemand: s.maxDemand,
	}, rand.New(rand.NewSource(seed)))
	inst := &switchnet.Instance{Switch: src.Switch(), Flows: make([]switchnet.Flow, 0, s.flows)}
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		inst.Flows = append(inst.Flows, f)
	}
	return inst
}

// drainer replays one instance through fresh runtimes, collecting each
// drain's schedule through Config.OnSchedule.
type drainer struct {
	spec   drainSpec
	inst   *switchnet.Instance
	rounds []int   // rounds[i] is the round flow i ran in, last drain
	iv     []int64 // ns between consecutive scheduled rounds, last drain
}

type drainOut struct {
	setup, run time.Duration
	sum        *stream.Summary
	digest     uint64
	// Heap allocations and allocated bytes during Run, when counted.
	allocs, bytes uint64
}

// tracedPolicy forwards to a policy and records a span per Pick, counting
// the shard's pending flows. At one shard it changes nothing the runtime
// sees: the runtime only asks a policy for Shardable and its age index,
// which a single shard does not use.
type tracedPolicy struct {
	p      stream.Policy
	tr     *tracer
	parent *int32
}

func (w *tracedPolicy) Name() string { return w.p.Name() }

func (w *tracedPolicy) Reset(sw switchnet.Switch) {
	if r, ok := w.p.(stream.Resetter); ok {
		r.Reset(sw)
	}
}

func (w *tracedPolicy) Pick(v *stream.View) {
	pending := v.NumPending()
	t0 := w.tr.now()
	w.p.Pick(v)
	w.tr.add("stream.pick", t0, w.tr.now(), *w.parent, int64(pending))
}

// tracedSource forwards to a batch source and records a span per call,
// counting the flows it returned.
type tracedSource struct {
	src    stream.BatchSource
	tr     *tracer
	parent *int32
}

func (s *tracedSource) Next() (switchnet.Flow, bool) {
	t0 := s.tr.now()
	f, ok := s.src.Next()
	n := int64(0)
	if ok {
		n = 1
	}
	s.tr.add("workload.pull", t0, s.tr.now(), *s.parent, n)
	return f, ok
}

func (s *tracedSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	t0 := s.tr.now()
	n0 := len(dst)
	dst = s.src.PullBatch(dst, round, max)
	s.tr.add("workload.pull", t0, s.tr.now(), *s.parent, int64(len(dst)-n0))
	return dst
}

func (s *tracedSource) Err() error { return s.src.Err() }

// drain runs the instance once. With tr non-nil the source and policy are
// wrapped and every scheduled round becomes a "stream.round" span whose
// children are that round's pulls and picks.
func (d *drainer) drain(tr *tracer, countAllocs bool) (drainOut, error) {
	for i := range d.rounds {
		d.rounds[i] = switchnet.Unscheduled
	}
	d.iv = d.iv[:0]
	src := workload.NewInstanceSource(d.inst)
	order := src.Order()
	cfg := stream.Config{
		Switch:      d.inst.Switch,
		Policy:      d.spec.policy(),
		Shards:      1,
		MaxPending:  d.spec.maxPending,
		VerifyEvery: d.spec.verifyEvery,
	}
	var source stream.Source = src
	last := -1
	var runSpan, cur, prevRound int32 = -1, -1, -1
	var served int64
	if tr == nil {
		epoch := time.Now()
		var prev int64
		cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
			d.rounds[order[seq]] = round
			if round != last {
				now := int64(time.Since(epoch))
				if last >= 0 {
					d.iv = append(d.iv, now-prev)
				}
				last, prev = round, now
			}
		}
	} else {
		tr.run++
		cfg.Policy = &tracedPolicy{p: cfg.Policy, tr: tr, parent: &cur}
		source = &tracedSource{src: src, tr: tr, parent: &cur}
		cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
			d.rounds[order[seq]] = round
			if round != last {
				// The span closing here covers everything since the
				// previous round's first departure: its remaining
				// departures, admission and the pick of this round.
				if prevRound >= 0 {
					tr.spans[prevRound].count = served
				}
				tr.close(cur, 0)
				prevRound, served, last = cur, 0, round
				cur = tr.open("stream.round", runSpan)
			}
			served++
		}
	}

	runtime.GC()
	var setupSpan int32 = -1
	if tr != nil {
		setupSpan = tr.open("stream.setup", -1)
	}
	t0 := time.Now()
	rt, err := stream.New(source, cfg)
	setup := time.Since(t0)
	if err != nil {
		return drainOut{}, fmt.Errorf("stream.New: %w", err)
	}
	var a0, b0 uint64
	if countAllocs {
		a0, b0 = heapUse()
	}
	if tr != nil {
		tr.close(setupSpan, 0)
		runSpan = tr.open("stream.run", -1)
		cur = tr.open("stream.round", runSpan)
	}
	t1 := time.Now()
	sum, err := rt.Run()
	run := time.Since(t1)
	if err != nil {
		return drainOut{}, fmt.Errorf("Run: %w", err)
	}
	if tr != nil {
		if prevRound >= 0 {
			tr.spans[prevRound].count = served
		}
		tr.spans[cur].name = "stream.finish"
		tr.close(cur, 0)
		tr.close(runSpan, sum.Completed)
	}
	out := drainOut{setup: setup, run: run, sum: sum, digest: scheduleDigest(d.rounds)}
	if countAllocs {
		a1, b1 := heapUse()
		out.allocs, out.bytes = a1-a0, b1-b0
	}
	return out, nil
}

// intervalsMS returns the last drain's round intervals in milliseconds.
func (d *drainer) intervalsMS() []float64 {
	ms := make([]float64, len(d.iv))
	for i, v := range d.iv {
		ms[i] = float64(v) / 1e6
	}
	return ms
}

// checkDrain verifies one drain's accounting and that its schedule is the
// first drain's.
func (d *drainer) checkDrain(r *run, o drainOut, want uint64) {
	s := o.sum
	n := int64(len(d.inst.Flows))
	r.check(s.Admitted == s.Completed+int64(s.Pending)+s.Dropped+s.Expired,
		"accounting: admitted %d != completed %d + pending %d + dropped %d + expired %d",
		s.Admitted, s.Completed, s.Pending, s.Dropped, s.Expired)
	r.check(s.Completed == n && s.Pending == 0, "completed %d of %d flows, %d pending", s.Completed, n, s.Pending)
	r.check(o.digest == want, "schedule digest %016x differs from the first drain's %016x", o.digest, want)
}

// checkSchedule verifies the collected schedule with the oracle and
// recomputes the summary's response metrics from it.
func (d *drainer) checkSchedule(r *run, s *stream.Summary) {
	rep, err := verify.CheckSchedule(d.inst, &switchnet.Schedule{Round: d.rounds}, d.inst.Switch.Caps())
	r.check(err == nil, "schedule infeasible: %v", err)
	if err != nil {
		return
	}
	r.check(int64(rep.TotalResponse) == s.TotalResponse && rep.MaxResponse == s.MaxResponse,
		"response: schedule gives total %d max %d, summary %d max %d",
		rep.TotalResponse, rep.MaxResponse, s.TotalResponse, s.MaxResponse)
	r.check(rep.AvgResponse == s.AvgResponse, "avg response: schedule %v, summary %v", rep.AvgResponse, s.AvgResponse)
}

func runDrain(spec drainSpec, o opts) (*run, error) {
	minDrains := 3
	if o.small {
		spec = spec.shrink()
		minDrains = 2
	}
	inst := genDrain(spec, o.seed)
	h := fnv.New64a()
	flowDigest(h, inst.Flows)
	o.info("inputs %d flows on %dx%d cap %d, digest %016x", len(inst.Flows), spec.ports, spec.ports, spec.cap, h.Sum64())
	d := &drainer{spec: spec, inst: inst, rounds: make([]int, len(inst.Flows)), iv: make([]int64, 0, len(inst.Flows)/16)}
	r := newRun()

	if o.trace {
		return r, d.traced(r, o, minDrains)
	}
	// Timings of every drain, and of the drains the hypervisor left alone.
	var setups, rates, p50s, p99s []float64
	var cleanRates, cleanP50s, cleanP99s []float64
	intervals := 0
	var first drainOut
	start := time.Now()
	for i := 0; i < minDrains || time.Since(start) < o.budget(); i++ {
		s0 := stealTime()
		out, err := d.drain(nil, false)
		if err != nil {
			return nil, err
		}
		clean := stolenShare(s0, stealTime(), out.run) <= maxStolen
		if i == 0 {
			first = out
			o.info("schedule digest %016x, %d rounds", out.digest, out.sum.Rounds)
		}
		d.checkDrain(r, out, first.digest)
		if spec.verifyEvery > 0 {
			r.check(out.sum.WindowsVerified > 0, "no verification window completed")
		}
		r.res.Attempted += out.sum.Admitted
		r.res.Failed += out.sum.Dropped + out.sum.Expired
		setups = append(setups, out.setup.Seconds())
		rates = append(rates, float64(out.sum.Completed)/out.run.Seconds())
		ms := d.intervalsMS()
		p50s = append(p50s, quantile(ms, 0.50))
		p99s = append(p99s, quantile(ms, 0.99))
		intervals += len(ms)
		if clean {
			cleanRates = append(cleanRates, rates[len(rates)-1])
			cleanP50s = append(cleanP50s, p50s[len(p50s)-1])
			cleanP99s = append(cleanP99s, p99s[len(p99s)-1])
		}
	}
	// The peak is read before the oracle check below allocates its own
	// per-round load tables.
	r.set("mem_peak_mb", memPeakMB(), "MB")
	// Every drain's schedule digest matched, so checking the last one
	// checks them all.
	d.checkSchedule(r, first.sum)
	o.info("%d drains (%d without host steal), %d round intervals", len(rates), len(cleanRates), intervals)
	rates, p50s, p99s = cleanOr(cleanRates, rates, minDrains), cleanOr(cleanP50s, p50s, minDrains), cleanOr(cleanP99s, p99s, minDrains)
	r.set("setup_s", median(setups), "s")
	r.set("flows_per_s", median(rates), "flows/s")
	// Each drain's own percentiles, then the median over drains: a host
	// stall that hits one drain moves its p99 only.
	r.set("latency_ms_p50", median(p50s), "ms")
	r.set("latency_ms_p99", median(p99s), "ms")
	r.set("resp_rounds_avg", first.sum.AvgResponse, "rounds")
	// The largest response of a million-flow drain is one extreme value,
	// which moves by a quarter between seeds; the mean of the slices'
	// maxima is the worst response a stretch of the stream typically sees.
	o.info("max response %d rounds over the whole drain", first.sum.MaxResponse)
	r.set("resp_rounds_max", mean(d.sliceMaxResponse(respSlices)), "rounds")
	return r, nil
}

// respSlices is how many consecutive slices of the arrival stream
// resp_rounds_max takes the mean over.
const respSlices = 16

// sliceMaxResponse returns, for each of n equal slices of the flows in
// release order, the largest response in rounds the schedule in d.rounds
// gives a flow of the slice.
func (d *drainer) sliceMaxResponse(n int) []float64 {
	out := make([]float64, n)
	for i, f := range d.inst.Flows {
		k := i * n / len(d.inst.Flows)
		out[k] = max(out[k], float64(d.rounds[i]+1-f.Release))
	}
	return out
}

// traced is the --trace 1 run of a drain workload. It alternates plain
// drains, which count heap allocations, with wrapped ones, so the overhead
// ratio compares drains made seconds apart, then calls
// verify.CheckSchedule directly on every verification window of the
// collected schedule.
func (d *drainer) traced(r *run, o opts, minDrains int) error {
	spec := d.spec
	tr := newTracer(1 << 18)
	var plain, wrapped []float64
	var allocs, bytes, flows float64
	var first drainOut
	start := time.Now()
	for i := 0; i < minDrains || time.Since(start) < o.budget(); i++ {
		out, err := d.drain(nil, true)
		if err != nil {
			return err
		}
		if i == 0 {
			first = out
			o.info("schedule digest %016x, %d rounds", out.digest, out.sum.Rounds)
		}
		d.checkDrain(r, out, first.digest)
		plain = append(plain, out.run.Seconds())
		allocs += float64(out.allocs)
		bytes += float64(out.bytes)
		flows += float64(out.sum.Completed)
		r.res.Attempted += out.sum.Admitted
		r.res.Failed += out.sum.Dropped + out.sum.Expired

		out, err = d.drain(tr, false)
		if err != nil {
			return err
		}
		d.checkDrain(r, out, first.digest)
		wrapped = append(wrapped, out.run.Seconds())
		r.res.Attempted += out.sum.Admitted
		r.res.Failed += out.sum.Dropped + out.sum.Expired
	}
	o.info("%d plain and %d wrapped drains, schedule digests all %016x", len(plain), len(wrapped), first.digest)
	d.checkSchedule(r, first.sum)

	st := tr.stats()
	pick, pull, round := st["stream.pick"], st["workload.pull"], st["stream.round"]
	served := float64(st["stream.run"].count)
	nRounds := float64(round.n)
	r.set("intake_ns_per_flow", pull.selfTotal()/served, "ns")
	r.set("decide_ns_per_flow", pick.selfTotal()/served, "ns")
	r.set("heap_allocs_per_flow", allocs/flows, "allocs")
	r.set("heap_bytes_per_flow", bytes/flows, "B")
	r.set("trace_overhead_ratio", median(wrapped)/median(plain), "ratio")
	o.info("stream.runtime_us_per_round %.3f, stream.pending_per_round %.1f, stream.served_per_round %.1f",
		round.selfTotal()/nRounds/1e3, float64(pick.count)/float64(pick.n), float64(round.count)/nRounds)
	if spec.verifyEvery > 0 {
		// The last drain left its schedule in d.rounds, and every drain's
		// digest matched.
		d.verifyWindows(r, o, tr, spec.verifyEvery)
	}
	return tr.write(o.spansDir, fmt.Sprintf("%s-seed%d.tsv", spec.name, o.seed))
}

// verifyWindows calls verify.CheckSchedule on each every-round window of
// the schedule in d.rounds, as the runtime does, timing each call.
func (d *drainer) verifyWindows(r *run, o opts, tr *tracer, every int) {
	type window struct {
		inst  switchnet.Instance
		sched switchnet.Schedule
	}
	var wins []*window
	for i, f := range d.inst.Flows {
		k := d.rounds[i] / every
		for len(wins) <= k {
			wins = append(wins, &window{inst: switchnet.Instance{Switch: d.inst.Switch}})
		}
		w := wins[k]
		w.inst.Flows = append(w.inst.Flows, f)
		w.sched.Round = append(w.sched.Round, d.rounds[i])
	}
	caps := d.inst.Switch.Caps()
	tr.run++
	root := tr.open("verify.check", -1)
	var ms []float64
	flows := 0
	for _, w := range wins {
		if len(w.inst.Flows) == 0 {
			continue
		}
		t0 := tr.now()
		_, err := verify.CheckSchedule(&w.inst, &w.sched, caps)
		t1 := tr.now()
		tr.add("verify.window", t0, t1, root, int64(len(w.inst.Flows)))
		r.check(err == nil, "verification window infeasible: %v", err)
		ms = append(ms, float64(t1-t0)/1e6)
		flows += len(w.inst.Flows)
	}
	tr.close(root, int64(flows))
	win := tr.stats()["verify.window"]
	o.info("verify.window_ms_p50 %.3f, verify.ns_per_flow %.1f", median(ms), win.selfTotal()/float64(win.count))
}
