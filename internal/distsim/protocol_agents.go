package distsim

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// The agent loops: one per role, whatever the failure policy and whatever
// the engine's sparsity. Front-ends and datacenters keep their
// per-iteration state in compact vectors over their index sets (see
// peersOf) and exchange messages only across those pairs, so wire
// traffic per iteration scales with the feasibility mask instead of M·N —
// on a hub tree with latency-local regions, the cross-pair traffic this
// removes is exactly the traffic that would otherwise transit the root.
//
// The compact vectors enumerate the same ascending indices as the
// engine's loops, in the same float evaluation order, so a distributed
// solve is bit-identical to the in-process solve, sparse or dense.

// runFrontEnd is the front-end proxy agent i: it performs the
// λ-minimization, exchanges (λ̃, φ) with its datacenters, applies the dual
// update and Gaussian back substitution for its row of a and φ, and
// reports its residual contribution.
func runFrontEnd(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, i int, pol Resilience) error {
	cols := e.FeasibleCols(i)
	ids := peersOf(cols, tab.dc)
	w, err := newWorker(ctx, tr, pol, tab, tab.fe[i], ids)
	if err != nil {
		return err
	}
	// A duplicate routing ack path does not exist for front-ends: the only
	// inbound streams are aux, control and the final ack, none of which
	// solicit a resend from us beyond the proactive phase retries.
	k := len(cols)
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	loadScale, dualScale := e.LoadScale(), e.DualScale()

	aC := make([]float64, k)
	varphiC := make([]float64, k)
	lambdaC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	aTildeC := make([]float64, k)
	ws := e.NewStepWorkspace()

	for iter := 1; ; iter++ {
		w.ret.NewRound(iter)
		// One head-sampled root span per front-end iteration; its context
		// rides the routing records (and the residual report) through the
		// hub tree, so a single trace links this agent's round to every
		// forwarding hop and to the coordinator's gather.
		sp := pol.Tracer.Root("fe.iter")
		sp.Attr("fe", int64(i))
		sp.Attr("iter", int64(iter))
		if err := e.LambdaStepCompactInto(ws, i, aC, varphiC, lambdaTildeC); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		for t, id := range ids {
			if w.dead[t] {
				continue
			}
			if err := w.ret.Send(id, Message{
				Kind: KindRouting, Iter: iter, From: w.self,
				Payload: []float64{lambdaTildeC[t], varphiC[t]},
				Trace:   sp.Context(),
			}); err != nil {
				return fmt.Errorf("front-end %d iter %d send: %w", i, iter, err)
			}
		}

		// Gather ã from the live datacenters; a blocked wait retransmits
		// the routing rows the missing peers may never have received. A
		// live datacenter may spend a full MessageDeadline degrading a
		// silent front-end before its ã goes out (deadline ladder, see
		// resilience.go) — wait twice that before falling back to stale.
		if _, err := w.gather(KindAux, iter, auxDeadlineFactor, KindRouting, iter, nil, aTildeC); err != nil {
			return err
		}

		// Dual prediction and Gaussian back substitution for this row;
		// dead columns are frozen (their duals stop moving and drop out
		// of the residual).
		var residual float64
		for t := 0; t < k; t++ {
			if w.dead[t] {
				continue
			}
			varphiTilde := varphiC[t] - rho*(aTildeC[t]-lambdaTildeC[t])
			newVarphi := varphiC[t] + eps*(varphiTilde-varphiC[t])
			if d := math.Abs(newVarphi-varphiC[t]) / dualScale; d > residual {
				residual = d
			}
			varphiC[t] = newVarphi
			aC[t] += eps * (aTildeC[t] - aC[t])
			if d := math.Abs(aC[t]-lambdaTildeC[t]) / loadScale; d > residual {
				residual = d
			}
			lambdaC[t] = lambdaTildeC[t]
		}

		sp.End()
		stop, err := w.control(iter, residual, sp.Context())
		if err != nil {
			return err
		}
		if stop {
			// The final routing scatters back to full length: entries
			// outside the index set are identically zero for the whole
			// solve.
			final := make([]float64, len(tab.dc)+1)
			final[0] = float64(i)
			for t, j := range cols {
				final[1+int(j)] = lambdaC[t]
			}
			return w.finish(Message{Kind: KindFinal, Iter: iter, From: w.self, Payload: final})
		}
	}
}

// runDatacenter is the datacenter agent j: it performs the μ-, ν- and
// a-minimizations, sends ã back to its front-ends, applies the dual update
// and Gaussian back substitution for its column, and reports its residual
// contribution. A datacenter outside every front-end's cutoff (an empty
// index set) still runs: it computes its μ/ν/φ updates over an empty load
// column — matching the engine's masked iterate exactly — and keeps
// reporting to the coordinator.
func runDatacenter(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, j int, pol Resilience) error {
	ids := peersOf(e.FeasibleRows(j), tab.fe)
	w, err := newWorker(ctx, tr, pol, tab, tab.dc[j], ids)
	if err != nil {
		return err
	}
	// A duplicate routing row means the front-end never saw our ã for that
	// round: retransmit it (solicited resend). Retention is two rounds; a
	// peer further behind is beyond catch-up and will be declared dead.
	w.mb.onDup = func(m Message) {
		if m.Kind == KindRouting {
			_ = w.ret.Resend(m.From, KindAux, m.Iter) //ufc:discard solicited resend is best-effort; the peer's own retries and the coordinator's liveness tracking own recovery
		}
	}
	k := len(ids)
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	dualScale := e.DualScale()
	disableCorrection := e.Options().DisableCorrection

	aC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	varphiC := make([]float64, k)
	aTildeC := make([]float64, k)
	// The trace context of each front-end's current routing row, echoed on
	// the ã reply so the front-end's trace covers the round trip.
	feTrace := make([]tracing.Context, k)
	ws := e.NewStepWorkspace()
	var mu, nu, phi float64

	for iter := 1; ; iter++ {
		w.ret.NewRound(iter)
		// Gather routing rows; a blocked wait retransmits the previous
		// round's ã (the missing peers may be stuck waiting for it). A
		// stale row echoes no trace.
		clear(feTrace)
		if _, err := w.gather(KindRouting, iter, 1, KindAux, iter-1, feTrace, lambdaTildeC, varphiC); err != nil {
			return err
		}

		var sumA float64
		for t := 0; t < k; t++ {
			sumA += aC[t]
		}
		muTilde := e.MuStep(j, sumA, nu, phi)
		nuTilde := e.NuStep(j, sumA, muTilde, phi)
		if k > 0 {
			if err := e.AStepCompactInto(ws, j, lambdaTildeC, varphiC, muTilde, nuTilde, phi, aTildeC); err != nil {
				return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
			}
		}
		var sumATilde float64
		for t := 0; t < k; t++ {
			sumATilde += aTildeC[t]
		}
		phiTilde := phi - rho*e.PowerBalance(j, sumATilde, muTilde, nuTilde)

		for t, id := range ids {
			if w.dead[t] {
				continue
			}
			if err := w.ret.Send(id, Message{
				Kind: KindAux, Iter: iter, From: w.self,
				Payload: []float64{aTildeC[t]},
				Trace:   feTrace[t],
			}); err != nil {
				return fmt.Errorf("datacenter %d iter %d send: %w", j, iter, err)
			}
		}

		// Gaussian back substitution for this column (same accumulation
		// order as the engine's correction).
		newPhi := phi + eps*(phiTilde-phi)
		residual := math.Abs(newPhi-phi) / dualScale
		phi = newPhi
		var aDelta float64
		for t := 0; t < k; t++ {
			old := aC[t]
			next := old + eps*(aTildeC[t]-old)
			aDelta += next - old
			aC[t] = next
		}
		nuOld := nu
		if disableCorrection {
			nu = nuTilde
			mu = muTilde
		} else {
			nu = nuOld + eps*(nuTilde-nuOld) + aDelta
			mu = mu + eps*(muTilde-mu) - (nu - nuOld) + aDelta
		}

		stop, err := w.control(iter, residual, tracing.Context{})
		if err != nil {
			return err
		}
		if stop {
			return w.finish(Message{
				Kind: KindFinal, Iter: iter, From: w.self,
				Payload: []float64{float64(j), mu, nu, phi},
			})
		}
	}
}

// runCoordinator gathers residual reports with liveness tracking,
// decides convergence, declares persistently silent agents dead,
// broadcasts the dead set with each control message, and collects the
// final routing, finalizing missing front-end routings by proximity
// fallback. Its peers are every front-end and datacenter.
func runCoordinator(ctx context.Context, e *core.Engine, t Transport, tab *idTable, pol Resilience) (*coordResult, error) {
	inst := e.Instance()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	opts := e.Options()
	agents := make([]string, 0, m+n)
	agents = append(agents, tab.fe...)
	agents = append(agents, tab.dc...)
	w, err := newWorker(ctx, t, pol, tab, tab.coord, agents)
	if err != nil {
		return nil, err
	}
	// The coordinator degrades around silent agents by declaring them
	// dead (after DeadAfter missed reports), never by a staleness abort.
	w.pol.StalenessCap = math.MaxInt
	stats := &core.Stats{}
	degr := &Degradation{}
	reported := make([]float64, len(agents))
	// Each agent's current report trace, echoed on its control reply so a
	// front-end's iteration trace covers the full round trip ("and back").
	reportTrace := make([]tracing.Context, len(agents))
	// The dead set as wire indices: every control carries it, so the fleet
	// routes around the dead agents.
	var mask []float64

	// A duplicate report means the agent never saw the control we answered
	// it with; a duplicate final means our ack was lost. Retransmit both.
	// A duplicate report is also proof of life: the sender is merely slow,
	// not gone, so its missed-round count restarts. Death is thereby
	// reserved for structural silence (crash, partition) — an agent whose
	// reports land late under scheduler pressure can delay a round but can
	// never be spuriously declared dead, which keeps the dead set (and so
	// the degraded trajectory) identical across same-seed replays.
	w.mb.onDup = func(msg Message) {
		switch msg.Kind {
		case KindReport:
			if k := w.slot(msg.From); k >= 0 && !w.dead[k] {
				w.stale[k] = 0
			}
			_ = w.ret.Resend(msg.From, KindControl, msg.Iter) //ufc:discard solicited resend is best-effort; the agent keeps retrying its report until the control lands
		case KindFinal:
			_ = w.ret.Resend(msg.From, KindFinalAck, msg.Iter) //ufc:discard solicited resend is best-effort; an unacked agent retries its final and re-solicits
		}
	}

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		w.ret.NewRound(iter)
		// Gather reports from live agents; a blocked wait retransmits the
		// previous control to the silent ones (they may be stuck in the
		// previous round's control phase). The gather deadline must
		// dominate a worker's worst-case round: an agent degrading around
		// dead peers spends up to two MessageDeadlines before its report
		// goes out (deadline ladder, see resilience.go). The third leaves
		// a full deadline of margin, so a live agent's report never races
		// the cutoff — only structurally absent agents are counted missed,
		// which keeps liveness decisions (and therefore replays)
		// deterministic. A missed round echoes no trace.
		clear(reportTrace)
		missedThisRound, err := w.gather(KindReport, iter, coordRoundFactor, KindControl, iter-1, reportTrace, reported)
		if err != nil {
			return nil, err
		}
		var residual float64
		for k, id := range agents {
			if w.dead[k] {
				continue
			}
			if w.got[k] {
				if reportTrace[k].Valid() {
					pol.Tracer.Event(reportTrace[k], "coord.report", tracing.I64("iter", int64(iter)), tracing.Attr{})
				}
				if reported[k] > residual {
					residual = reported[k]
				}
				continue
			}
			degr.MissedReports++
			if w.stale[k] >= pol.DeadAfter {
				w.dead[k] = true
				degr.DeadAgents = append(degr.DeadAgents, id)
				idx, _ := agentIndex(id)
				mask = append(mask, float64(idx))
				pol.Tracer.Event(tracing.Context{}, "coord.dead",
					tracing.I64("iter", int64(iter)), tracing.I64("agent", int64(k)))
				pol.Flight.Dump("agent-dead")
				if chaosTrace {
					fmt.Fprintf(os.Stderr, "trace: coord declared %s dead @%d\n", id, iter)
				}
			}
		}
		if missedThisRound > 0 {
			degr.StaleRounds++
			pol.Tracer.Event(tracing.Context{}, "coord.round",
				tracing.I64("iter", int64(iter)), tracing.I64("missed", int64(missedThisRound)))
		}

		stats.Iterations = iter
		stats.FinalResidual = residual
		opts.Probe.ObserveIteration(residual)
		if opts.TrackResiduals {
			stats.ResidualTrace = append(stats.ResidualTrace, residual)
		}
		// Stop only on a fully-reported round below tolerance: a round
		// with missing reports may under-estimate the true residual.
		stop := (missedThisRound == 0 && residual <= opts.Tolerance) || iter == opts.MaxIterations
		stats.Converged = residual <= opts.Tolerance && missedThisRound == 0
		for k, id := range agents {
			if w.dead[k] {
				continue
			}
			if err := w.ret.Send(id, Message{
				Kind: KindControl, Iter: iter, From: w.self, Stop: stop, Payload: mask,
				Trace: reportTrace[k],
			}); err != nil {
				return nil, fmt.Errorf("coordinator iter %d broadcast: %w", iter, err)
			}
		}
		if stop {
			break
		}
	}
	// Distributed runs always start from the zero iterate.
	opts.Probe.ObserveSolve(stats.Iterations, stats.FinalResidual, stats.Converged, false)
	lastIter := stats.Iterations

	// Collect finals from the live agents, acking each so the senders can
	// retire their retransmission loops. A blocked wait retransmits the
	// stop control — an agent stuck in its control phase has not seen it.
	lambda := make([][]float64, m)
	clear(w.got) // now: the agent's final arrived
	need := len(agents) - len(degr.DeadAgents)
	onRetry := func() error { return w.resendMissing(KindControl, lastIter) }
	gpol := pol.ladder(coordRoundFactor)
	for try := 0; try < pol.DeadAfter && need > 0; try++ {
		ph := newPhase(w.mb, gpol, w.self, lastIter, onRetry)
		for need > 0 {
			msg, ok, err := ph.recv(KindFinal, lastIter)
			if err != nil {
				ph.stop()
				return nil, fmt.Errorf("coordinator finals: %w", err)
			}
			if !ok {
				break
			}
			k := w.slot(msg.From)
			if k < 0 || w.got[k] {
				continue
			}
			w.got[k] = true
			need--
			if err := w.ret.Send(msg.From, Message{
				Kind: KindFinalAck, Iter: lastIter, From: w.self,
			}); err != nil {
				return nil, fmt.Errorf("coordinator final ack: %w", err)
			}
			if len(msg.Payload) == n+1 {
				if i := int(msg.Payload[0]); i >= 0 && i < m && msg.From == tab.fe[i] {
					lambda[i] = append([]float64(nil), msg.Payload[1:]...)
				}
			}
		}
		ph.stop()
	}
	// Proximity fallback: a front-end that died (or went silent) before
	// delivering its final routing sends all demand to its nearest
	// datacenter — the degradation policy for crashed demand sources.
	for i := 0; i < m; i++ {
		if lambda[i] != nil {
			continue
		}
		row := make([]float64, n)
		best := 0
		for j := 1; j < n; j++ {
			if inst.Cloud.LatencySec(i, j) < inst.Cloud.LatencySec(i, best) {
				best = j
			}
		}
		row[best] = inst.Arrivals[i]
		lambda[i] = row
		degr.ProximityFrontEnds = append(degr.ProximityFrontEnds, i)
	}
	if len(degr.DeadAgents) == 0 && degr.MissedReports == 0 && len(degr.ProximityFrontEnds) == 0 {
		degr = nil
	}
	return &coordResult{lambda: lambda, stats: stats, degr: degr}, nil
}
