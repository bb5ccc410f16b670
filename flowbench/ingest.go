package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowsched/internal/daemon"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// ingestSpec is the daemon workload: an in-process flowschedd behind a
// loopback listener, offered 256-flow POST /flows batches open loop — each
// request has a due time on a fixed schedule and is sent then (or as soon
// as one of the client connections is free), whatever the earlier
// responses did.
type ingestSpec struct {
	ports        int
	batch        int     // flows per POST
	bodies       int     // distinct pre-encoded bodies, cycled
	conns        int     // client connections
	rate         float64 // flows/s for the post_ms_* phase
	handlerCalls int     // direct Handler().ServeHTTP calls, traced run
	setups       int     // extra daemons stood up and drained empty
}

var ingest = ingestSpec{
	ports: 16, batch: 256, bodies: 64, conns: 2,
	rate:         200e3,
	handlerCalls: 2000, setups: 16,
}

func (s ingestSpec) shrink() ingestSpec {
	s.bodies = 4
	s.rate = 20e3
	s.handlerCalls = 20
	s.setups = 2
	return s
}

// genBodies encodes the POST bodies from the seed.
func genBodies(s ingestSpec, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, s.bodies)
	for i := range bodies {
		req := struct {
			Flows []switchnet.Flow `json:"flows"`
		}{make([]switchnet.Flow, s.batch)}
		for j := range req.Flows {
			req.Flows[j] = switchnet.Flow{In: rng.Intn(s.ports), Out: rng.Intn(s.ports), Demand: 1}
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // flows of ints always encode
		}
		bodies[i] = b
	}
	return bodies
}

// liveDaemon is one daemon.Server served on a loopback listener.
type liveDaemon struct {
	srv   *daemon.Server
	hs    *http.Server
	url   string
	serve chan error
}

// startDaemon stands a daemon up (daemon.New, listener, Start) and returns
// it with the time that took. wrap, when non-nil, wraps the handler; tr,
// when non-nil, records a span per policy Pick.
func startDaemon(s ingestSpec, wrap func(http.Handler) http.Handler, tr *tracer) (*liveDaemon, time.Duration, error) {
	var policy stream.Policy = &stream.RoundRobin{}
	if tr != nil {
		root := int32(-1)
		policy = &tracedPolicy{p: policy, tr: tr, parent: &root}
	}
	runtime.GC() // the previous phase's garbage is not this set-up's cost
	t0 := time.Now()
	srv, err := daemon.New(daemon.Config{
		Switch: switchnet.UnitSwitch(s.ports),
		Policy: policy,
		Shards: 1,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("daemon.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &liveDaemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/flows", serve: make(chan error, 1)}
	go func() { d.serve <- d.hs.Serve(ln) }()
	srv.Start()
	return d, time.Since(t0), nil
}

// stop drains the daemon — every accepted flow completes — and shuts the
// HTTP server down, waiting for it to return.
func (d *liveDaemon) stop() (*stream.Summary, error) {
	sum, err := d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := d.hs.Shutdown(ctx); serr != nil && err == nil {
		err = fmt.Errorf("http shutdown: %w", serr)
	}
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("http serve: %w", serr)
	}
	return sum, err
}

// phaseLen is the length of one fixed-rate phase: at 200k flows/s in
// 256-flow POSTs, long enough for more than ten posts beyond its p99.
const phaseLen = 2 * time.Second

// spinWait is how close to a request's due time the generator stops
// sleeping and spins.
const spinWait = time.Millisecond

// post is one request's timing, in ns since the phase's start.
type post struct {
	due, sent, done int64
	// onTime is true when a connection was free before the due time, so
	// sent-due is the generator's own lateness, not queueing behind a
	// slow response.
	onTime   bool
	accepted int
	status   int
}

// phase is the outcome of one load phase against one daemon.
type phase struct {
	posts []post
	start time.Time
	spans []int32 // the posts' "loadgen.post" spans, traced phases only
	// steal samples the hypervisor's steal time through the phase.
	steal []stealSample
}

type stealSample struct {
	at    int64 // ns since the phase's start
	steal time.Duration
}

// stolen is the share of CPU time the hypervisor took between lo and hi
// (ns since the phase's start), from the samples around them.
func (p phase) stolen(lo, hi int64) float64 {
	i, j := 0, len(p.steal)-1
	for i+1 < len(p.steal) && p.steal[i+1].at <= lo {
		i++
	}
	for j > i && p.steal[j-1].at >= hi {
		j--
	}
	return stolenShare(p.steal[i].steal, p.steal[j].steal, time.Duration(p.steal[j].at-p.steal[i].at))
}

// closeSpans fills in the client spans once the server has shut down, so
// no handler is still adding its child span.
func (p phase) closeSpans(tr *tracer) {
	base := int64(p.start.Sub(tr.epoch))
	for i, q := range p.posts {
		sp := &tr.spans[p.spans[i]]
		sp.start, sp.end = base+q.sent, base+q.done
	}
}

func (p phase) latenciesMS() []float64 {
	out := make([]float64, len(p.posts))
	for i, q := range p.posts {
		out[i] = float64(q.done-q.due) / 1e6
	}
	return out
}

func (p phase) lateP99MS() float64 {
	var late []float64
	for _, q := range p.posts {
		if q.onTime {
			late = append(late, float64(q.sent-q.due)/1e6)
		}
	}
	return quantile(late, 0.99)
}

func (p phase) accepted() (flows int, failed int) {
	for _, q := range p.posts {
		flows += q.accepted
		if q.status != http.StatusAccepted {
			failed++
		}
	}
	return flows, failed
}

// end is when the phase's last answer came, in ns since its start.
func (p phase) end() int64 {
	var t int64
	for _, q := range p.posts {
		t = max(t, q.done)
	}
	return t
}

// intake is the phase's accepted flows per second, taken per window — the
// phase split by answer time into windows equal parts — then the median
// over the windows in which the hypervisor took at most maxStolen of the
// machine, or over all windows if none is left.
func (p phase) intake(windows int) float64 {
	last := p.end() + 1
	per := make([]int, windows)
	for _, q := range p.posts {
		per[q.done*int64(windows)/last] += q.accepted
	}
	secs := float64(last) / 1e9 / float64(windows)
	var all, clean []float64
	for k, flows := range per {
		rate := float64(flows) / secs
		all = append(all, rate)
		if p.stolen(int64(k)*last/int64(windows), int64(k+1)*last/int64(windows)) <= maxStolen {
			clean = append(clean, rate)
		}
	}
	return median(cleanOr(clean, all, 1))
}

// sampleSteal samples the hypervisor's steal time every 100 ms, from now
// until the returned function is called; that call returns the samples.
func sampleSteal(since func() int64) func() []stealSample {
	var steal []stealSample
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			steal = append(steal, stealSample{since(), stealTime()})
			select {
			case <-stop:
				steal = append(steal, stealSample{since(), stealTime()})
				return
			case <-tick.C:
			}
		}
	}()
	return func() []stealSample {
		close(stop)
		<-sampled
		return steal
	}
}

// newClient is one client connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// send POSTs body and fills in q's sent, done, status and accepted. A span
// id of 0 or more rides in the X-Bench-Span header.
func send(client *http.Client, url string, body []byte, span int32, since func() int64, q *post) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // a fixed loopback URL always parses
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(int(span)))
	}
	q.sent = since()
	resp, err := client.Do(req)
	if err != nil {
		q.done = since()
		return
	}
	b, _ := io.ReadAll(resp.Body) // a short read shows as a failed decode below
	resp.Body.Close()
	q.done = since()
	q.status = resp.StatusCode
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if q.status == http.StatusAccepted && json.Unmarshal(b, &ack) == nil {
		q.accepted = ack.Accepted
	}
}

// offer sends rate*dur/batch POSTs (at least one) open loop over s.conns
// connections and waits for every response. With tr non-nil each request
// becomes a "loadgen.post" span whose id rides in the X-Bench-Span header,
// so the wrapped handler can record its span as the child.
func offer(s ingestSpec, url string, bodies [][]byte, rate float64, dur time.Duration, tr *tracer) phase {
	n := int(rate*dur.Seconds()/float64(s.batch) + 0.5)
	if n < 1 {
		n = 1
	}
	interval := float64(s.batch) / rate * 1e9
	posts := make([]post, n)
	var spanIDs []int32
	if tr != nil {
		tr.run++
		spanIDs = make([]int32, n)
		for i := range spanIDs {
			spanIDs[i] = tr.add("loadgen.post", 0, 0, -1, int64(s.batch))
		}
	}
	var pace sync.Mutex // guards next
	next := 0
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	since := func() int64 { return int64(time.Since(start)) }
	stopSteal := sampleSteal(since)
	for c := 0; c < s.conns; c++ {
		client := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for {
				// One connection at a time takes the next request and waits
				// for its due time, so requests go out in order and at most
				// one goroutine spins while the server keeps a processor.
				pace.Lock()
				i := next
				next++
				if i >= n {
					pace.Unlock()
					return
				}
				q := &posts[i]
				q.due = int64(float64(i) * interval)
				q.onTime = q.due > since()
				for {
					wait := q.due - since()
					if wait <= 0 {
						break
					}
					// Sleep most of a long wait, spin the rest: timer
					// wake-ups on virtual machines can land a millisecond
					// late, which would show as the server's latency.
					if wait > int64(spinWait) {
						time.Sleep(time.Duration(wait) - spinWait)
					}
				}
				pace.Unlock()
				span := int32(-1)
				if tr != nil {
					span = spanIDs[i]
				}
				send(client, url, bodies[i%len(bodies)], span, since, q)
			}
		}()
	}
	wg.Wait()
	return phase{posts: posts, start: start, spans: spanIDs, steal: stopSteal()}
}

// saturate sends POSTs back to back over s.conns connections, each sending
// its next request as soon as the last one is answered, until dur has
// passed, and waits for every response. The server then takes flows as
// fast as it and the connections can.
func saturate(s ingestSpec, url string, bodies [][]byte, dur time.Duration) phase {
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	stopSteal := sampleSteal(since)
	per := make([][]post, s.conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range per {
		client := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for since() < int64(dur) {
				q := post{due: since()}
				send(client, url, bodies[int(next.Add(1)-1)%len(bodies)], -1, since, &q)
				per[c] = append(per[c], q)
			}
		}()
	}
	wg.Wait()
	return phase{posts: slices.Concat(per...), start: start, steal: stopSteal()}
}

// spanHandler records a "daemon.handler" span per request, parented to the
// client's span named in X-Bench-Span.
func spanHandler(tr *tracer) func(http.Handler) http.Handler {
	var mu sync.Mutex // handlers of the two connections run concurrently
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := tr.now()
			h.ServeHTTP(w, r)
			t1 := tr.now()
			parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			if err != nil {
				parent = -1
			}
			mu.Lock()
			tr.add("daemon.handler", t0, t1, int32(parent), 0)
			mu.Unlock()
		})
	}
}

// runPhase stands up a fresh daemon, runs one load phase against it,
// drains, and checks that every accepted flow completed. It returns the
// phase, the daemon's set-up time and its final summary.
func runPhase(r *run, s ingestSpec, name string, wrap func(http.Handler) http.Handler, load func(url string) phase) (phase, time.Duration, *stream.Summary, error) {
	d, setup, err := startDaemon(s, wrap, nil)
	if err != nil {
		return phase{}, 0, nil, err
	}
	p := load(d.url)
	sum, err := d.stop()
	if err != nil {
		return phase{}, 0, nil, fmt.Errorf("drain: %w", err)
	}
	flows, failed := p.accepted()
	r.res.Attempted += int64(len(p.posts))
	r.res.Failed += int64(failed)
	r.check(sum.Completed == int64(flows) && sum.Pending == 0 && sum.Admitted == sum.Completed+sum.Dropped+sum.Expired,
		"drain after the %s phase: %d flows accepted, summary completed %d admitted %d pending %d",
		name, flows, sum.Completed, sum.Admitted, sum.Pending)
	return p, setup, sum, nil
}

func runIngest(o opts) (*run, error) {
	s := ingest
	if o.small {
		s = s.shrink()
	}
	bodies := genBodies(s, o.seed)
	h := fnv.New64a()
	for _, b := range bodies {
		h.Write(b)
	}
	o.info("inputs %d bodies of %d flows on %dx%d cap 1, digest %016x", len(bodies), s.batch, s.ports, s.ports, h.Sum64())
	r := newRun()
	if o.trace {
		return r, ingestTraced(r, s, bodies, o)
	}

	// Stand-up alone, several times, so set-up has its own median.
	var setups []float64
	for i := 0; i < s.setups; i++ {
		d, setup, err := startDaemon(s, nil, nil)
		if err != nil {
			return nil, err
		}
		if _, err := d.stop(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		setups = append(setups, setup.Seconds())
	}
	// Half the budget at the fixed rate, in phases of about phaseLen
	// against a fresh daemon each, and half saturating one daemon. Each
	// fixed-rate phase gives its own latency percentiles and response
	// figures, and the metrics are their medians over the phases the
	// hypervisor left alone: a host stall that hits one phase moves its
	// p99 and its maximum response only.
	dur := o.budget() / 2
	n := max(1, int(dur.Seconds()/phaseLen.Seconds()+0.5))
	var p50s, p99s, avgs, maxs []float64
	var clean []int // indices of the phases without host steal
	posts := 0
	for k := 0; k < n; k++ {
		p, setup, sum, err := runPhase(r, s, "fixed-rate", nil, func(url string) phase {
			return offer(s, url, bodies, s.rate, dur/time.Duration(n), nil)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		lat := p.latenciesMS()
		posts += len(lat)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		avgs = append(avgs, sum.AvgResponse)
		maxs = append(maxs, float64(sum.MaxResponse))
		if p.stolen(0, p.end()) <= maxStolen {
			clean = append(clean, k)
		}
	}
	if len(clean) > 0 {
		p50s, p99s, avgs, maxs = pick(p50s, clean), pick(p99s, clean), pick(avgs, clean), pick(maxs, clean)
	}
	full, setup, _, err := runPhase(r, s, "saturating", nil, func(url string) phase {
		return saturate(s, url, bodies, dur)
	})
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup.Seconds())
	flows, _ := full.accepted()
	o.info("fixed rate %g flows/s: %d posts in %d phases (%d without host steal); saturating: %d posts, %d flows in %.2f s; %d set-ups",
		s.rate, posts, n, len(clean), len(full.posts), flows, float64(full.end())/1e9, len(setups))
	r.set("setup_s", median(setups), "s")
	r.set("flows_per_s", full.intake(max(1, int(dur.Seconds()+0.5))), "flows/s")
	r.set("latency_ms_p50", median(p50s), "ms")
	r.set("latency_ms_p99", median(p99s), "ms")
	// The daemon stamps releases in rounds as it pulls flows, so these are
	// the responses its users would see at the fixed rate.
	r.set("resp_rounds_avg", median(avgs), "rounds")
	r.set("resp_rounds_max", median(maxs), "rounds")
	r.set("mem_peak_mb", memPeakMB(), "MB")
	return r, nil
}

// pick returns xs[i] for each i in idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// ingestTraced measures the daemon's layers: the handler called directly
// with prepared bodies, first on a plain daemon counting heap allocations,
// then on one whose policy is wrapped; then a plain and a traced phase at
// the fixed rate, whose client spans minus their handler child spans give
// the network and net/http time.
func ingestTraced(r *run, s ingestSpec, bodies [][]byte, o opts) error {
	tr := newTracer(1 << 18)
	allocs, allocBytes, _, err := directCalls(r, s, bodies, nil)
	if err != nil {
		return err
	}
	_, _, us, err := directCalls(r, s, bodies, tr)
	if err != nil {
		return err
	}

	dur := o.budget() / 3
	plain, _, _, err := runPhase(r, s, "plain fixed-rate", nil, func(url string) phase {
		return offer(s, url, bodies, s.rate, dur, nil)
	})
	if err != nil {
		return err
	}
	traced, _, _, err := runPhase(r, s, "traced fixed-rate", spanHandler(tr), func(url string) phase {
		return offer(s, url, bodies, s.rate, dur, tr)
	})
	if err != nil {
		return err
	}
	traced.closeSpans(tr)
	st := tr.stats()
	direct, pick := st["daemon.handler_direct"], st["stream.pick"]
	flows := float64(direct.count)
	r.set("intake_ns_per_flow", direct.selfTotal()/flows, "ns")
	r.set("decide_ns_per_flow", pick.selfTotal()/flows, "ns")
	r.set("heap_allocs_per_flow", allocs/flows, "allocs")
	r.set("heap_bytes_per_flow", allocBytes/flows, "B")
	r.set("trace_overhead_ratio", median(traced.latenciesMS())/median(plain.latenciesMS()), "ratio")
	net := make([]float64, len(st["loadgen.post"].self))
	for i, ns := range st["loadgen.post"].self {
		net[i] = ns / 1e6
	}
	o.info("daemon.handler_us_p50 %.1f, daemon.net_ms_p50 %.3f, loadgen.late_ms_p99 %.3f",
		median(us), median(net), traced.lateP99MS())
	return tr.write(o.spansDir, fmt.Sprintf("daemon_ingest-seed%d.tsv", o.seed))
}

// directCalls stands up a daemon, calls its Handler().ServeHTTP directly
// with s.handlerCalls prepared POST /flows requests, drains it and checks
// that every flow completed. It returns the heap allocations and bytes
// from the first call until the drain ended, and each call's time in us.
// With tr non-nil the daemon's policy is wrapped and each call becomes a
// "daemon.handler_direct" span; the policy's picks are not its children,
// as the round loop runs beside the handler.
func directCalls(r *run, s ingestSpec, bodies [][]byte, tr *tracer) (allocs, allocBytes float64, us []float64, err error) {
	d, _, err := startDaemon(s, nil, tr)
	if err != nil {
		return 0, 0, nil, err
	}
	reqs := make([]*http.Request, s.handlerCalls)
	recs := make([]*httptest.ResponseRecorder, s.handlerCalls)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/flows", bytes.NewReader(bodies[i%len(bodies)]))
		recs[i] = httptest.NewRecorder()
	}
	var root int32 = -1
	if tr != nil {
		tr.run++
		root = tr.open("daemon.direct", -1)
	}
	h := d.srv.Handler()
	a0, b0 := heapUse()
	for i, req := range reqs {
		t0 := time.Now()
		h.ServeHTTP(recs[i], req)
		t1 := time.Now()
		if tr != nil {
			tr.add("daemon.handler_direct", int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)), root, int64(s.batch))
		}
		r.res.Attempted++
		if recs[i].Code != http.StatusAccepted {
			r.res.Failed++
		}
		us = append(us, float64(t1.Sub(t0))/1e3)
	}
	sum, err := d.stop()
	a1, b1 := heapUse()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("drain: %w", err)
	}
	if tr != nil {
		tr.close(root, int64(s.handlerCalls*s.batch))
	}
	r.check(sum.Completed == int64(s.handlerCalls*s.batch) && sum.Pending == 0,
		"direct handler calls: completed %d of %d flows", sum.Completed, s.handlerCalls*s.batch)
	return float64(a1 - a0), float64(b1 - b0), us, nil
}
