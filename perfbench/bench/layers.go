package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Layer timings that run after a measured phase, on a solved state.

// setPhases reports the probe's per-iteration phase times.
func (r *runner) setPhases(p *telemetry.SolverProbe) {
	it := float64(p.Iterations())
	if it == 0 {
		return
	}
	r.set("core.phase_lambda_us", float64(p.PhaseNanos(telemetry.SolverPhaseLambda))/it/1e3)
	r.set("core.phase_datacenter_us", float64(p.PhaseNanos(telemetry.SolverPhaseDatacenter))/it/1e3)
	r.set("core.phase_correction_us", float64(p.PhaseNanos(telemetry.SolverPhaseCorrection))/it/1e3)
}

// perCallUS times f over enough calls to fill ~20 ms and returns µs/call.
func perCallUS(f func()) float64 {
	f()
	reps := 1
	for {
		t := time.Now()
		for k := 0; k < reps; k++ {
			f()
		}
		if d := time.Since(t); d > 20*time.Millisecond || reps >= 1<<20 {
			return float64(d.Nanoseconds()) / float64(reps) / 1e3
		}
		reps *= 4
	}
}

// kernelTimings times one λ-step per front-end and one a-step per
// datacenter on a solved state: the dense kernels (LambdaStepInto,
// AStepInto) or, compact, their masked-index variants.
func (r *runner) kernelTimings(e *core.Engine, s *core.State, compact bool) {
	m, n := len(s.Lambda), len(s.Mu)
	ws := e.NewStepWorkspace()
	var failed error
	// Gather the state into the vectors each kernel takes.
	type lamArgs struct{ a, v, dst []float64 }
	type aArgs struct{ lam, v, dst []float64 }
	lams := make([]lamArgs, m)
	for i := range lams {
		if compact {
			idx := e.FeasibleCols(i)
			la := lamArgs{make([]float64, len(idx)), make([]float64, len(idx)), make([]float64, len(idx))}
			for t, j := range idx {
				la.a[t], la.v[t] = s.A[i][j], s.Varphi[i][j]
			}
			lams[i] = la
		} else {
			lams[i] = lamArgs{s.A[i], s.Varphi[i], make([]float64, n)}
		}
	}
	as := make([]aArgs, n)
	for j := range as {
		var rows []int
		if compact {
			for _, i := range e.FeasibleRows(j) {
				rows = append(rows, int(i))
			}
		} else {
			for i := 0; i < m; i++ {
				rows = append(rows, i)
			}
		}
		aa := aArgs{make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))}
		for t, i := range rows {
			aa.lam[t], aa.v[t] = s.Lambda[i][j], s.Varphi[i][j]
		}
		as[j] = aa
	}
	lam := perCallUS(func() {
		for i, la := range lams {
			var err error
			if compact {
				err = e.LambdaStepCompactInto(ws, i, la.a, la.v, la.dst)
			} else {
				err = e.LambdaStepInto(ws, i, la.a, la.v, la.dst)
			}
			if err != nil && failed == nil {
				failed = fmt.Errorf("λ-step %d: %w", i, err)
			}
		}
	})
	ast := perCallUS(func() {
		for j, aa := range as {
			var err error
			if compact {
				err = e.AStepCompactInto(ws, j, aa.lam, aa.v, s.Mu[j], s.Nu[j], s.Phi[j], aa.dst)
			} else {
				err = e.AStepInto(ws, j, aa.lam, aa.v, s.Mu[j], s.Nu[j], s.Phi[j], aa.dst)
			}
			if err != nil && failed == nil {
				failed = fmt.Errorf("a-step %d: %w", j, err)
			}
		}
	})
	if failed != nil {
		r.problem("kernel timing: %v", failed)
	}
	r.set("core.lambda_step_ns", lam*1e3/float64(m))
	r.set("core.a_step_ns", ast*1e3/float64(n))
}

// iterateTimings times Engine.Iterate on a solved state, its allocations,
// and, given a one-worker engine over the same instance, the serial time
// and the parallel speedup.
func (r *runner) iterateTimings(e *core.Engine, s *core.State, serial *core.Engine) {
	var failed error
	iterate := func(e *core.Engine) func() {
		return func() {
			if err := e.Iterate(s); err != nil && failed == nil {
				failed = err
			}
		}
	}
	us := perCallUS(iterate(e))
	r.set("core.iterate_us", us)
	r.set("core.iterate_ns_per_pair", us*1e3/float64(e.FeasiblePairs()))
	r.set("core.iterate_allocs", testing.AllocsPerRun(100, iterate(e)))
	serialUS := us
	if serial != nil {
		serialUS = perCallUS(iterate(serial))
	}
	r.set("core.iterate_us_serial", serialUS)
	r.set("core.parallel_speedup", serialUS/us)
	if failed != nil {
		r.problem("iterate timing: %v", failed)
	}
}
