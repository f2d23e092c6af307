package bench

import (
	"math"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// rollingSparse steps the control plane's write side through a day of the
// 20×200×4 fleet: Pipeline.RunSlot on every slot, warm-started, two
// solver workers, the sparsity cutoff at the region boundary, the default
// tolerance and a memo cache that every slot misses (all slots of a day
// are distinct). A round is one day on a fresh pipeline, so each day
// starts cold at slot 0. The day is the trace seed's (TraceSeed, whose
// references are stored); the run seed does not change it. Rotating the
// day's start slot by the run seed moved the median slot time 15 %
// between seeds, because every warm-start path, and with it every
// iteration count, changes.
func (r *runner) rollingSparse() error {
	t := time.Now()
	refs, err := loadRollingRefs(r.cfg.TraceSeed)
	if err != nil {
		return err
	}
	excluded := time.Since(t)
	topo, err := experiments.NewSyntheticTopology(Fleet, FleetSeed)
	if err != nil {
		return err
	}
	day := DaySlots
	if r.cfg.Short {
		day = 3
	}
	insts := make([]*core.Instance, day)
	for t := range insts {
		insts[t] = topo.SlotInstance(r.cfg.TraceSeed, int64(t))
	}
	opts := core.Options{SparsityCutoff: topo.CutoffSec, Workers: 2}
	var probe *telemetry.SolverProbe
	var cpRec *tracing.Recorder
	if r.cfg.Traced {
		probe = telemetry.NewSolverProbe()
		cpRec = tracing.NewRecorder(tracing.Config{Component: "controlplane", RingSize: 1 << 12, IDs: r.ids, SampleEvery: 1})
		r.recorders = append(r.recorders, cpRec)
	}
	newPipe := func(on bool) (*controlplane.Pipeline, error) {
		cfg := controlplane.Config{
			Instance:  func(slot int64) *core.Instance { return insts[int(slot)%day] },
			Solver:    opts,
			WarmStart: true,
			CacheSize: 2 * DaySlots,
		}
		if on {
			cfg.Solver.Probe, cfg.Tracer = probe, cpRec
		}
		return controlplane.New(cfg)
	}
	pipe, err := newPipe(false)
	if err != nil {
		return err
	}
	r.setupDoneExcluding(excluded)

	var snaps [][]*controlplane.Snapshot // per round, per slot (nil when failed)
	times := newOpTimes(day)
	var plainSlot, tracedSlot []float64 // traced runs: per-slot times by kind
	var iters, coldIters, runSlotMS, selfMS []float64
	var cacheHits uint64
	var warm, cold controlplane.Report // traced pipelines' totals
	r.phaseBegin()
	start := time.Now()
	for k := 0; r.moreRounds(k, start); k++ {
		on := r.tracedRound(k)
		if k > 0 {
			if pipe, err = newPipe(on); err != nil {
				return err
			}
		}
		row := make([]*controlplane.Snapshot, day)
		rsp := r.span(on, noParent, "bench.rolling_sparse.day")
		for s := 0; s < day; s++ {
			r.attempted++
			var before controlplane.Report
			if on {
				before = pipe.Report()
			}
			sp := r.span(on, rsp.Context(), "controlplane.Pipeline.RunSlot")
			ts := time.Now()
			err := pipe.RunSlot()
			d := time.Since(ts)
			sp.End()
			if err != nil {
				r.opFailed("slot %d: %v", s, err)
				continue
			}
			snap := pipe.Router().Current()
			row[s] = snap
			times.add(s, d, snap.Info.Iterations)
			if !on {
				plainSlot = append(plainSlot, ms(d))
				continue
			}
			tracedSlot = append(tracedSlot, ms(d))
			after := pipe.Report()
			iters = append(iters, float64(snap.Info.Iterations))
			if s == 0 {
				coldIters = append(coldIters, float64(snap.Info.Iterations))
			}
			runSlotMS = append(runSlotMS, ms(d))
			selfMS = append(selfMS, ms(d)-float64(after.SolveNanos-before.SolveNanos)/1e6)
		}
		rsp.End()
		rep := pipe.Report()
		cacheHits += rep.CacheHits
		if on {
			warm.WarmSolves += rep.WarmSolves
			warm.WarmIterations += rep.WarmIterations
			cold.ColdSolves += rep.ColdSolves
			cold.ColdIterations += rep.ColdIterations
		}
		if err := pipe.Stop(); err != nil {
			r.opFailed("pipeline stop: %v", err)
		}
		snaps = append(snaps, row)
	}

	r.phaseEnd()
	times.set(r)

	gaps := r.checkRolling(insts, snaps, refs, topo.CutoffSec)
	if !r.cfg.Traced {
		return nil
	}
	r.set("core.iters_per_slot", mean(iters))
	r.set("core.cold_iters", mean(coldIters))
	r.set("core.ufc_gap_max", quantile(gaps, 1))
	r.set("core.ufc_gap_mean", mean(gaps))
	r.set("cp.runslot_ms", quantile(runSlotMS, 0.5))
	r.set("cp.self_ms", quantile(selfMS, 0.5))
	r.set("cp.warm_iters_per_solve", warm.WarmPerSolve())
	r.set("cp.cold_iters_per_solve", cold.ColdPerSolve())
	r.set("cp.cache_hits", float64(cacheHits))
	r.setPhases(probe)
	r.set("trace.overhead_pct", overheadPct(plainSlot, tracedSlot))

	// Kernel, reset and finalize timings on the last slot solved apart
	// from the pipeline (whose engine is private) with the same options.
	last := insts[day-1]
	eng, err := core.NewEngine(last, opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	state := core.NewState(Fleet.M, Fleet.N)
	if _, _, _, err := eng.SolveState(state); err != nil {
		r.problem("last slot re-solve: %v", err)
	}
	serialOpts := opts
	serialOpts.Workers = 1
	serial, err := core.NewEngine(last, serialOpts)
	if err != nil {
		return err
	}
	r.set("core.reset_us", perCallUS(func() {
		if err := eng.Reset(last); err != nil {
			r.problem("reset timing: %v", err)
		}
	}))
	r.set("core.finalize_us", perCallUS(func() { eng.Finalize(state) }))
	r.kernelTimings(eng, state, true)
	r.iterateTimings(eng, state, serial)
	return nil
}

// checkRolling checks every published snapshot of round 0: the routing it
// implies (weights × arrivals) sums to the arrivals, respects capacity and
// leaves every pair beyond the cutoff empty, and its UFC under the exact
// power split is within gapBound of the stored reference. Later rounds
// replay the same inputs and must publish bit-identical weights. It
// returns the gaps.
func (r *runner) checkRolling(insts []*core.Instance, snaps [][]*controlplane.Snapshot, refs *RollingRefs, cutoff float64) []float64 {
	weightsOf := func(s *controlplane.Snapshot) [][]float64 {
		w := make([][]float64, s.M)
		for i := range w {
			w[i] = make([]float64, s.N)
			s.Weights(i, w[i])
		}
		return w
	}
	var gaps []float64
	for s, snap := range snaps[0] {
		if snap == nil {
			continue
		}
		c, err := coeffsOf(insts[s], core.Hybrid)
		if err != nil {
			r.problem("slot %d: %v", s, err)
			continue
		}
		w := weightsOf(snap)
		ufc, err := c.splitUFC(routingFromWeights(w, c.arrivals), cutoff, c.capacitySlack(core.DefaultTolerance))
		if err != nil {
			r.problem("slot %d snapshot: %v", s, err)
			continue
		}
		g, err := checkGap(ufc, refs.Slots[s].UFC)
		if err != nil {
			r.problem("slot %d: %v", s, err)
		}
		gaps = append(gaps, math.Max(0, g))
		for k := 1; k < len(snaps); k++ {
			other := snaps[k][s]
			if other == nil {
				continue
			}
			if !sameWeights(w, weightsOf(other)) {
				r.problem("round %d slot %d: weights differ from round 0 (same input, same options)", k, s)
			}
		}
	}
	return gaps
}

func sameWeights(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
