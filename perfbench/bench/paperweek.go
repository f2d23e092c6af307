package bench

import (
	"math"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var weekStrategies = []core.Strategy{core.Hybrid, core.GridOnly, core.FuelCellOnly}

// paperWeek solves the paper's scenario (DefaultConfig: 4 datacenters ×
// 10 front-ends, 168 hours, scenario seed 2012) as one warm-started hourly
// chain per strategy, the strategies one after another, on a serial
// engine at the default tolerance. A round is the three chains; each
// starts cold at hour 0. The week is the paper's one trace, so the seed
// only orders the chains: every seed solves the same 504 instances along
// the same warm-start paths. (Rotating the week's start hour by seed moved
// the p90 slot time 56 % between seeds, because every warm-start path, and
// with it every iteration count, changes.)
func (r *runner) paperWeek() error {
	sc, err := experiments.NewScenario(experiments.DefaultConfig())
	if err != nil {
		return err
	}
	hours := sc.Config.Hours
	if r.cfg.Short {
		hours = 12
	}
	insts := make([]*core.Instance, hours)
	for h := range insts {
		insts[h] = sc.InstanceAt(h)
	}
	chains := chainOrder(r.cfg.Seed)
	m, n := sc.Cloud.M(), sc.Cloud.N()

	// Untraced engines serve every run; traced rounds use engines with a
	// solver probe attached.
	type chain struct {
		eng   *core.Engine
		state *core.State
	}
	var probe *telemetry.SolverProbe
	build := func(p *telemetry.SolverProbe) ([]chain, error) {
		cs := make([]chain, len(weekStrategies))
		for k, s := range weekStrategies {
			e, err := core.NewEngine(insts[0], core.Options{Strategy: s, Probe: p})
			if err != nil {
				return nil, err
			}
			cs[k] = chain{eng: e, state: core.NewState(m, n)}
		}
		return cs, nil
	}
	plain, err := build(nil)
	if err != nil {
		return err
	}
	traced := plain
	if r.cfg.Traced {
		probe = telemetry.NewSolverProbe()
		if traced, err = build(probe); err != nil {
			return err
		}
	}
	r.setupDone()

	slots := len(weekStrategies) * hours
	first := make([]*core.Allocation, slots) // round 0's allocations, checked below
	ufcs := make([]core.Breakdown, slots)    // round 0's reported breakdowns
	var rounds [][]uint64                    // every round's UFC bits
	times := newOpTimes(slots)
	var tracedSecs, plainSecs []float64     // traced runs: round times by kind
	var iters, coldIters, resetUS []float64 // traced rounds
	r.phaseBegin()
	start := time.Now()
	for k := 0; r.moreRounds(k, start); k++ {
		on := r.tracedRound(k)
		cs := plain
		if on {
			cs = traced
		}
		bits := make([]uint64, slots)
		rsp := r.span(on, noParent, "bench.paper_week.round")
		t0 := time.Now()
		for _, si := range chains {
			c := cs[si]
			c.state.Zero()
			csp := r.span(on, rsp.Context(), "bench.chain")
			csp.Attr("strategy", int64(weekStrategies[si]))
			for h := 0; h < hours; h++ {
				idx := si*hours + h
				r.attempted++
				ts := time.Now()
				sp := r.span(on, csp.Context(), "core.Engine.Reset")
				err := c.eng.Reset(insts[h])
				sp.End()
				tr := time.Now()
				if err != nil {
					r.opFailed("hour %d %s reset: %v", h, weekStrategies[si], err)
					continue
				}
				sp = r.span(on, csp.Context(), "core.Engine.SolveState")
				alloc, bd, st, err := c.eng.SolveState(c.state)
				sp.End()
				d := time.Since(ts)
				if err != nil {
					r.opFailed("hour %d %s: %v", h, weekStrategies[si], err)
					continue
				}
				times.add(idx, d, st.Iterations)
				bits[idx] = math.Float64bits(bd.UFC)
				if k == 0 {
					first[idx], ufcs[idx] = alloc, bd
				}
				if on {
					iters = append(iters, float64(st.Iterations))
					if h == 0 {
						coldIters = append(coldIters, float64(st.Iterations))
					}
					resetUS = append(resetUS, float64(tr.Sub(ts).Nanoseconds())/1e3)
				}
			}
			csp.End()
		}
		d := time.Since(t0)
		rsp.End()
		if on {
			tracedSecs = append(tracedSecs, d.Seconds())
		} else {
			plainSecs = append(plainSecs, d.Seconds())
		}
		rounds = append(rounds, bits)
	}

	r.phaseEnd()
	times.set(r)

	// Checks, all after the measured phase.
	gaps := r.checkWeek(insts, first, ufcs)
	for k := 1; k < len(rounds); k++ {
		for idx, b := range rounds[k] {
			if b != rounds[0][idx] {
				r.problem("round %d slot %d: UFC differs from round 0 (same input, same options)", k, idx)
				break
			}
		}
	}

	if !r.cfg.Traced {
		return nil
	}
	r.set("core.iters_per_slot", mean(iters))
	r.set("core.cold_iters", mean(coldIters))
	r.set("core.reset_us", mean(resetUS))
	r.set("core.ufc_gap_max", quantile(gaps, 1))
	r.set("core.ufc_gap_mean", mean(gaps))
	r.setPhases(probe)
	r.set("trace.overhead_pct", overheadPct(plainSecs, tracedSecs))
	// Kernel timings on the run's last solved state (Hybrid chain, dense
	// serial engine).
	c := plain[0]
	r.set("core.finalize_us", perCallUS(func() { c.eng.Finalize(c.state) }))
	r.kernelTimings(c.eng, c.state, false)
	r.iterateTimings(c.eng, c.state, nil)
	for _, cs := range [][]chain{plain, traced} {
		for _, c := range cs {
			c.eng.Close()
		}
	}
	return nil
}

// checkWeek checks round 0's allocations: the constraints, the reported
// UFC against the paper's formulas, and the UFC against baseline.SolveQP's
// centralized optimum for the same strategy. It returns the gaps.
func (r *runner) checkWeek(insts []*core.Instance, allocs []*core.Allocation, bds []core.Breakdown) []float64 {
	hours := len(insts)
	refs := make([]float64, len(allocs))
	refErrs := make([]error, len(allocs))
	// The reference QPs are the benchmark's own work: two goroutines
	// share them after the measured phase.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < len(allocs); idx += 2 {
				_, bd, err := baseline.SolveQP(insts[idx%hours], weekStrategies[idx/hours])
				refs[idx], refErrs[idx] = bd.UFC, err
			}
		}(w)
	}
	wg.Wait()
	var gaps []float64
	for idx, a := range allocs {
		if a == nil {
			continue // the operation failed and was counted
		}
		s, h := weekStrategies[idx/hours], idx%hours
		c, err := coeffsOf(insts[idx%hours], s)
		if err != nil {
			r.problem("hour %d %s: %v", h, s, err)
			continue
		}
		own, err := c.checkAllocation(a, 0, c.capacitySlack(core.DefaultTolerance))
		if err != nil {
			r.problem("hour %d %s: %v", h, s, err)
			continue
		}
		if err := checkUFCEqual(own, bds[idx].UFC); err != nil {
			r.problem("hour %d %s: %v", h, s, err)
		}
		if refErrs[idx] != nil {
			r.problem("hour %d %s: reference QP: %v", h, s, refErrs[idx])
			continue
		}
		g, err := checkGap(own, refs[idx])
		if err != nil {
			r.problem("hour %d %s: %v", h, s, err)
		}
		gaps = append(gaps, math.Max(0, g))
	}
	return gaps
}

// chainOrder is the seed's order of the three strategy chains.
func chainOrder(seed int64) []int {
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	return orders[splitmix64(uint64(seed))%uint64(len(orders))]
}
