package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/telemetry/tracing"
)

// Serve-lookups input make-up.
const (
	// serveConns is the number of lookup connections carrying the load.
	serveConns = 2
	// serveRate is the open-loop offered rate over all connections, in
	// lookups per second: Poisson arrivals, well below capacity.
	serveRate = 2000
	// serveWindow is the closed-loop requests in flight per connection.
	// At 8 the closed-loop median latency jumped between two modes from
	// run to run (0.04 and 0.06 ms, spread 0.49 over ten seeds); at 4 it
	// held within 2 %.
	serveWindow = 4
	// inflightRing holds the send stamps of one connection's closed-loop
	// requests in flight, by request id modulo its size. The hub answers
	// a connection's requests in order, so the ids in flight are the last
	// serveWindow sent on it.
	inflightRing = 64
	// keepSnaps is how many of the latest captured snapshots a run keeps
	// for checking answers as they arrive (about five seconds of solves);
	// a traced run keeps every one for its open-loop records.
	keepSnaps = 16
	// latBucketNS and latBuckets shape the closed-loop latency histogram:
	// 10 ns buckets up to 1 ms; slower answers are kept exactly.
	latBucketNS = 10
	latBuckets  = 100_000
)

// openRec is one open-loop lookup. The generator writes due, sent, write
// and the trace ids; the connection's read goroutine writes the answer
// fields. The two never touch a common field, and both finish before the
// records are read.
type openRec struct {
	due, sent, write int64 // unix ns, unix ns, ns spent in LookupTraced
	traceID, spanID  uint64
	recv, age        int64
	slot             uint64
	dc               uint32
	ok               bool
}

// closedConn is one connection's closed-loop bookkeeping. It is fixed in
// size, so the benchmark's own memory does not grow with the run's
// throughput and peak_rss_mb follows the program's: the connection's read
// goroutine times and checks each answer as it arrives instead of keeping
// a record per lookup. The sender writes the in-flight stamps; the read
// goroutine writes everything else.
type closedConn struct {
	inflight [inflightRing]struct {
		id   atomic.Uint64 // request id + 1; 0 while the entry is free
		sent atomic.Int64  // ns since the phase's clock base
	}
	answered atomic.Int64
	notOK    int64 // answered without a decision
	lat      latHist
	weights  []float64
}

// latHist is a fixed-size latency histogram: latBucketNS-wide buckets up
// to latBuckets·latBucketNS, and the exact latencies of slower answers.
type latHist struct {
	n    int64
	b    []uint32
	slow []int64 // ns
}

// newLatHist returns an empty histogram whose buckets are already
// resident, so its share of peak_rss_mb does not depend on the latencies.
func newLatHist() latHist {
	b := make([]uint32, latBuckets)
	for k := range b {
		b[k] = 0
	}
	return latHist{b: b}
}

func (h *latHist) add(ns int64) {
	h.n++
	if k := ns / latBucketNS; k >= 0 && k < latBuckets {
		h.b[k]++
		return
	}
	h.slow = append(h.slow, ns)
}

// latQuantileUS is the nearest-rank q-quantile, in µs, of the latencies
// of every histogram given. A latency inside the buckets reads as its
// bucket's middle.
func latQuantileUS(q float64, hs ...*latHist) float64 {
	var n int64
	var slow []int64
	for _, h := range hs {
		n += h.n
		slow = append(slow, h.slow...)
	}
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	var c int64
	for k := 0; k < latBuckets; k++ {
		for _, h := range hs {
			c += int64(h.b[k])
		}
		if c >= rank {
			return (float64(k) + 0.5) * latBucketNS / 1e3
		}
	}
	sort.Slice(slow, func(a, b int) bool { return slow[a] < slow[b] })
	return float64(slow[rank-c-1]) / 1e3
}

// draw returns request k's front-end and routing entropy.
func draw(seed int64, k, m int) (uint32, uint64) {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(k))
	return uint32(h % uint64(m)), splitmix64(h)
}

// serveLookups runs the control plane's read side beside its write side: a
// hub serves the 20×200×4 pipeline (ListenConfig.Decider) while the
// pipeline re-solves back to back on its own loop (Pipeline.Run, one
// solver worker, warm-started, no cache). Two lookup connections carry a
// closed-loop phase (serveWindow requests in flight per connection) for the
// run's seconds. A traced run gives the first half of its seconds to an
// open-loop phase instead (Poisson arrivals at serveRate, latency timed
// from each request's due time), whose figures are per-layer metrics.
func (r *runner) serveLookups() error {
	topo, err := experiments.NewSyntheticTopology(Fleet, FleetSeed)
	if err != nil {
		return err
	}
	// The pipeline cycles through the day from slot 0 whatever the seed:
	// its cold first solve is part of setup_s, and a cold solve of another
	// slot is other work, so a seeded start slot would move setup_s with
	// the seed.
	insts := make([]*core.Instance, DaySlots)
	for k := range insts {
		insts[k] = topo.SlotInstance(r.cfg.TraceSeed, int64(k))
	}
	closedPhase := time.Duration(r.cfg.Seconds * float64(time.Second))
	rate := float64(serveRate)
	if r.cfg.Short {
		closedPhase, rate = 300*time.Millisecond, 500
	}
	var openPhase time.Duration
	if r.cfg.Traced {
		closedPhase /= 2
		openPhase = closedPhase
	}

	// Open-loop schedule: request k is due dues[k] after the phase starts.
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	var dues []time.Duration
	for at := time.Duration(0); openPhase > 0; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= openPhase {
			break
		}
		dues = append(dues, at)
	}
	open := len(dues)

	// Every published snapshot is captured when the pipeline asks for
	// the next slot's instance (the loop publishes slot s, then starts
	// slot s+1 by calling Instance), so each answered lookup can be
	// checked against the table that answered it. The same call stamps
	// each slot's start, which times the background solves.
	var (
		mu      sync.Mutex
		snaps   = map[uint64]*controlplane.Snapshot{}
		iters   = map[int64]int{} // every captured slot's iterations
		starts  = map[int64]time.Time{}
		pipeRef atomic.Pointer[controlplane.Pipeline]
	)
	capture := func(s *controlplane.Snapshot) {
		if s != nil {
			mu.Lock()
			snaps[uint64(s.Slot)] = s
			iters[s.Slot] = s.Info.Iterations
			if open == 0 {
				delete(snaps, uint64(s.Slot-keepSnaps))
			}
			mu.Unlock()
		}
	}
	var hubRec, cpRec *tracing.Recorder
	if r.cfg.Traced {
		hubRec = tracing.NewRecorder(tracing.Config{Component: "hub", RingSize: 1 << 13, IDs: r.ids})
		cpRec = tracing.NewRecorder(tracing.Config{Component: "controlplane", RingSize: 1 << 13, IDs: r.ids, SampleEvery: 1})
		r.recorders = append(r.recorders, hubRec, cpRec)
	}
	pipe, err := controlplane.New(controlplane.Config{
		Instance: func(slot int64) *core.Instance {
			if p := pipeRef.Load(); p != nil {
				now := time.Now()
				capture(p.Router().Current())
				mu.Lock()
				starts[slot] = now
				mu.Unlock()
			}
			return insts[int(slot%DaySlots)]
		},
		Solver:    core.Options{SparsityCutoff: topo.CutoffSec, Workers: 1},
		WarmStart: true,
		Tracer:    cpRec,
	})
	if err != nil {
		return err
	}
	pipeRef.Store(pipe)
	// snapshotOf returns the snapshot of a slot: the live one, or the one
	// captured when it was replaced (slot s is captured before s+1 can be
	// published).
	snapshotOf := func(slot uint64) *controlplane.Snapshot {
		if s := pipe.Router().Current(); s != nil && uint64(s.Slot) == slot {
			return s
		}
		mu.Lock()
		defer mu.Unlock()
		return snaps[slot]
	}
	// checkAnswer checks lookup k's answered datacenter against the
	// answering snapshot's weights and the request's draw.
	checkAnswer := func(k, slot uint64, dc uint32, weights []float64) error {
		fe, u := draw(r.cfg.Seed, int(k), Fleet.M)
		snap := snapshotOf(slot)
		if snap == nil {
			return fmt.Errorf("lookup %d answered from slot %d, which was never published (or was replaced %d slots before the answer arrived)", k, slot, keepSnaps)
		}
		snap.Weights(int(fe), weights)
		if err := checkLookup(weights, u, int(dc)); err != nil {
			return fmt.Errorf("lookup %d (front-end %d, slot %d): %w", k, fe, slot, err)
		}
		return nil
	}
	// checkMu guards r's problem list against the read goroutines, which
	// report failed checks as they find them.
	var checkMu sync.Mutex

	ctx := context.Background()
	v1 := distsim.SecurityConfig{WireVersion: distsim.WireVersion1}
	hub, err := distsim.Listen(ctx, distsim.ListenConfig{Addr: "127.0.0.1:0", Decider: pipe, Tracer: hubRec, Security: v1})
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }() // teardown after every check has run
	if err := pipe.Run(); err != nil {
		return err
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			if err := pipe.Stop(); err != nil {
				r.opFailed("background pipeline: %v", err)
			}
			capture(pipe.Router().Current())
		}
	}
	defer stop()

	openRecs := make([]openRec, open)
	var openAnswered atomic.Int64
	base := time.Now() // the closed loop's clock: ns since base
	conns := make([]*closedConn, serveConns)
	tokens := make([]chan struct{}, serveConns)
	clients := make([]*distsim.LookupClient, serveConns)
	for c := range clients {
		cc := &closedConn{lat: newLatHist(), weights: make([]float64, Fleet.N)}
		conns[c] = cc
		tokens[c] = make(chan struct{}, serveWindow) // at most serveWindow requests in flight
		tok := tokens[c]
		ep, err := distsim.Dial(ctx, distsim.DialConfig{
			Addr: hub.Addr(), LookupName: fmt.Sprintf("bench-%d", c), Security: v1,
			OnDecision: func(d distsim.Decision) {
				if d.ReqID < uint64(open) {
					rec := &openRecs[d.ReqID]
					rec.recv, rec.dc, rec.slot, rec.age, rec.ok = time.Now().UnixNano(), d.DC, d.Slot, d.AgeNanos, d.OK
					openAnswered.Add(1)
					return
				}
				now := int64(time.Since(base))
				e := &cc.inflight[d.ReqID%inflightRing]
				if e.id.Load() != d.ReqID+1 {
					checkMu.Lock()
					r.problem("answer to lookup %d, which is not in flight", d.ReqID)
					checkMu.Unlock()
					return
				}
				lat := now - e.sent.Load()
				e.id.Store(0)
				tok <- struct{}{} // never blocks: one token per request in flight
				cc.lat.add(lat)
				if !d.OK {
					cc.notOK++
				} else if err := checkAnswer(d.ReqID, d.Slot, d.DC, cc.weights); err != nil {
					checkMu.Lock()
					r.problem("%v", err)
					checkMu.Unlock()
				}
				cc.answered.Add(1) // last: a reader that sees it sees the fields above
			},
		})
		if err != nil {
			return err
		}
		clients[c] = ep.(*distsim.LookupClient)
		defer func() { _ = clients[c].Close() }() // teardown after every check has run
	}
	var timer *preciseTimer
	if open > 0 {
		if timer, err = newPreciseTimer(); err != nil {
			return err
		}
		defer func() { _ = timer.Close() }() // read-only timer
	}
	r.setupDone()

	// send puts request k on connection c, traced on odd k in a traced
	// run.
	send := func(k, c int) error {
		fe, u := draw(r.cfg.Seed, k, Fleet.M)
		var tc tracing.Context
		if r.cfg.Traced && k%2 == 1 {
			sp := r.rec.Root("bench.lookup")
			sp.Attr("req", int64(k))
			tc = sp.Context()
			sp.End()
		}
		if k >= open {
			e := &conns[c].inflight[k%inflightRing]
			e.sent.Store(int64(time.Since(base)))
			e.id.Store(uint64(k) + 1)
			return clients[c].LookupTraced(fe, uint64(k), u, tc)
		}
		ts := time.Now()
		rec := &openRecs[k]
		rec.sent, rec.traceID, rec.spanID = ts.UnixNano(), uint64(tc.Trace), uint64(tc.Span)
		err := clients[c].LookupTraced(fe, uint64(k), u, tc)
		rec.write = time.Since(ts).Nanoseconds()
		return err
	}
	// waitUntil waits up to 10 s for every request sent to be answered.
	waitUntil := func(done func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !done() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	before := pipe.Report()
	hubBefore := hub.Stats()
	r.phaseBegin()
	runStart := time.Now()

	// Open loop (traced runs).
	openStart := time.Now()
	for k, due := range dues {
		at := openStart.Add(due)
		if err := timer.sleepUntil(at); err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		openRecs[k].due = at.UnixNano()
		if err := send(k, k%serveConns); err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
	}
	waitUntil(func() bool { return openAnswered.Load() >= int64(open) })
	var hubSpans, cpSpans []tracing.SpanRecord
	if r.cfg.Traced {
		hubSpans = hubRec.Snapshot(nil, 0)
		cpSpans = cpRec.Snapshot(nil, 0)
	}

	// Closed loop: connection c sends ids open+c, open+c+serveConns, ...
	hubClosed := hub.Stats()
	closedStart := time.Now()
	closedEnd := closedStart.Add(closedPhase)
	stuck, cancel := context.WithDeadline(ctx, closedEnd.Add(10*time.Second))
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	sent := make([]int64, serveConns)
	for c := 0; c < serveConns; c++ {
		for w := 0; w < serveWindow; w++ {
			tokens[c] <- struct{}{}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(closedEnd) {
				select {
				case <-tokens[c]:
				case <-stuck.Done():
					errs[c] = fmt.Errorf("connection %d: no answer within 10 s", c)
					return
				}
				if err := send(open+c+serveConns*int(sent[c]), c); err != nil {
					errs[c] = err
					return
				}
				sent[c]++
			}
		}(c)
	}
	wg.Wait()
	var closedN int64
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
		closedN += sent[c]
	}
	waitUntil(func() bool {
		var n int64
		for _, cc := range conns {
			n += cc.answered.Load()
		}
		return n >= closedN
	})
	closedDone := time.Now()
	r.phaseEnd()
	hubAfter := hub.Stats()
	after := pipe.Report()
	// From here on a late answer's read goroutine waits for the results.
	checkMu.Lock()
	defer checkMu.Unlock()
	stop()

	// Results and checks.
	weights := make([]float64, Fleet.N)
	var openLat, openRTT, late, writeUS []float64
	var maxAge int64
	for k := range openRecs {
		rec := &openRecs[k]
		r.attempted++
		if rec.recv == 0 || !rec.ok {
			r.opFailed("lookup %d: no answer", k)
			continue
		}
		if err := checkAnswer(uint64(k), rec.slot, rec.dc, weights); err != nil {
			r.problem("%v", err)
		}
		maxAge = max(maxAge, rec.age)
		openLat = append(openLat, float64(rec.recv-rec.due)/1e3)
		openRTT = append(openRTT, float64(rec.recv-rec.sent)/1e3)
		late = append(late, float64(rec.sent-rec.due)/1e3)
		if rec.traceID != 0 {
			writeUS = append(writeUS, float64(rec.write)/1e3)
			tc := tracing.Context{Trace: tracing.TraceID(rec.traceID), Span: tracing.SpanID(rec.spanID)}
			r.rec.RecordSpan(tc, "bench.lookup.answer", rec.sent, rec.recv, tracing.I64("req", int64(k)), tracing.I64("dc", int64(rec.dc)))
		}
	}
	var okN int64
	hists := make([]*latHist, serveConns)
	for c, cc := range conns {
		hists[c] = &cc.lat
		answered := cc.answered.Load()
		r.attempted += sent[c]
		for miss := sent[c] - answered; miss > 0; miss-- {
			r.opFailed("connection %d: a closed-loop lookup got no answer", c)
		}
		for k := cc.notOK; k > 0; k-- {
			r.opFailed("connection %d: a closed-loop lookup got no decision", c)
		}
		okN += answered - cc.notOK
	}

	// The background solver: slot s ran from its start to slot s+1's.
	var perIter []float64
	for s, t := range starts {
		next, ok := starts[s+1]
		if !ok || iters[s] == 0 || t.Before(runStart) || next.After(closedDone) {
			continue
		}
		perIter = append(perIter, ms(next.Sub(t))/float64(iters[s]))
	}
	if len(perIter) == 0 && !r.cfg.Short {
		// Not a check of the program's output: the phases were too short
		// to time a background solve, so round_ms_p50 reads 0.
		fmt.Fprintln(os.Stderr, "bench: no background solve completed inside the measured phases")
	}

	// The end-to-end lookup figures come from the closed loop. Open-loop
	// latency from the due time is reported per layer only: on this class
	// of two-vCPU VM a timer wake-up of an idle vCPU runs milliseconds late
	// at p90 even with nothing else running, so it measures the host's
	// timer delivery more than the lookup path (see README.md).
	r.set("ops_per_s", float64(okN)/closedDone.Sub(closedStart).Seconds())
	r.set("op_ms_p50", latQuantileUS(0.5, hists...)/1e3)
	r.set("op_ms_p90", latQuantileUS(0.9, hists...)/1e3)
	r.set("round_ms_p50", quantile(perIter, 0.5))
	if !r.cfg.Traced {
		return nil
	}
	solves := after.Solves - before.Solves
	if solves > 0 {
		r.set("cp.background_solve_ms", float64(after.SolveNanos-before.SolveNanos)/float64(solves)/1e6)
	}
	if after.Solves > 0 {
		r.set("core.iters_per_slot", float64(after.WarmIterations+after.ColdIterations)/float64(after.Solves))
	}
	r.set("core.cold_iters", after.ColdPerSolve())
	r.set("cp.warm_iters_per_solve", after.WarmPerSolve())
	r.set("cp.cold_iters_per_solve", after.ColdPerSolve())
	r.set("cp.snapshot_age_ms_max", float64(maxAge)/1e6)
	r.set("cp.decide_ns", decideNS(pipe.Router(), r.cfg.Seed))
	r.set("serve.client_write_us", quantile(writeUS, 0.5))
	r.set("serve.hub_us", spanMedianUS(hubSpans, "hub.lookup"))
	r.set("serve.decide_us", spanMedianUS(cpSpans, "cp.decide"))
	if f := hubAfter.Flushes - hubClosed.Flushes; f > 0 {
		r.set("serve.decisions_per_flush", float64(hubAfter.DecisionsAnswered-hubClosed.DecisionsAnswered)/float64(f))
	}
	if r.attempted > 0 {
		r.set("serve.wire_bytes_per_lookup", float64(hubAfter.BytesSent+hubAfter.BytesReceived-hubBefore.BytesSent-hubBefore.BytesReceived)/float64(r.attempted))
	}
	r.set("serve.closed_us_p50", latQuantileUS(0.5, hists...))
	r.set("serve.lookup_us_p50", quantile(openLat, 0.5))
	r.set("serve.lookup_us_p90", quantile(openLat, 0.9))
	r.set("serve.lookup_us_p99", quantile(openLat, 0.99))
	r.set("serve.lookup_us_p999", quantile(openLat, 0.999))
	r.set("serve.open_rtt_us_p50", quantile(openRTT, 0.5))
	r.set("serve.gen_late_us_p99", quantile(late, 0.99))
	// In a traced run one connection's closed-loop ids are all traced (odd)
	// and the other's all untraced: the same load, paired.
	tracedConn := (open + 1) % serveConns
	if u := latQuantileUS(0.5, hists[1-tracedConn]); u > 0 {
		r.set("trace.overhead_pct", 100*(latQuantileUS(0.5, hists[tracedConn])/u-1))
	}
	return nil
}

// preciseTimer sleeps on a Linux timerfd read through the runtime's network
// poller. Go's own timers round sub-millisecond waits up to a whole
// millisecond (the poller's epoll timeout), which would swamp the
// latencies being measured; a thread blocked in nanosleep instead holds
// its P, so network readiness goes unnoticed until sysmon's next poll. A
// timerfd read parks the goroutine like any socket read and wakes it at
// the hrtimer's expiry.
type preciseTimer struct {
	f    *os.File
	fd   uintptr
	spec [2]syscall.Timespec // itimerspec: interval, value
	buf  [8]byte
}

func newPreciseTimer() (*preciseTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("bench: timerfd_create: %w", errno)
	}
	return &preciseTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at or after t.
func (pt *preciseTimer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	pt.spec[1] = syscall.NsecToTimespec(d.Nanoseconds())
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, pt.fd, 0, uintptr(unsafe.Pointer(&pt.spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("bench: timerfd_settime: %w", errno)
	}
	_, err := pt.f.Read(pt.buf[:])
	return err
}

func (pt *preciseTimer) Close() error { return pt.f.Close() }

// decideNS times the in-process Router.Decide on the live snapshot.
func decideNS(rt *controlplane.Router, seed int64) float64 {
	const batch = 1024
	fes, us := make([]uint32, batch), make([]uint64, batch)
	for k := range fes {
		fes[k], us[k] = draw(seed, k, Fleet.M)
	}
	var sink uint32
	per := perCallUS(func() {
		for k, fe := range fes {
			dc, _, _, _ := rt.Decide(fe, us[k])
			sink += dc
		}
	})
	_ = sink
	return per * 1e3 / batch
}

// spanMedianUS is the median duration of the named spans, in µs.
func spanMedianUS(spans []tracing.SpanRecord, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.DurationNanos)/1e3)
		}
	}
	if len(d) == 0 {
		return 0
	}
	return quantile(d, 0.5)
}
