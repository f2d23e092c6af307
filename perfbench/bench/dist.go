package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
)

// Dist-tcp input make-up.
const (
	// distSlots is how many successive slots of the day one round solves.
	distSlots = 4
	// distRounds caps every distributed solve at this many protocol
	// rounds (one ADM-G iteration each), so every solve does the same work.
	distRounds = 20
)

// distTCP solves successive slots of the 20×200×4 fleet with the
// message-passing protocol (distsim.Run, fail-fast, sparse agents) over one
// loopback hub speaking plaintext wire v1. All 221 agents sit on one node
// that is dialed once per run. Every solve runs distRounds rounds from the
// zero iterate; the seed rotates the first slot.
func (r *runner) distTCP() error {
	topo, err := experiments.NewSyntheticTopology(Fleet, FleetSeed)
	if err != nil {
		return err
	}
	slots, rounds := distSlots, distRounds
	if r.cfg.Short {
		slots, rounds = 1, 5
	}
	t0 := rotation(r.cfg.Seed, DaySlots)
	order := make([]int, slots)
	insts := make([]*core.Instance, slots)
	for k := range insts {
		order[k] = (t0 + k) % DaySlots
		insts[k] = topo.SlotInstance(r.cfg.TraceSeed, int64(order[k]))
	}
	opts := core.Options{Strategy: core.Hybrid, SparsityCutoff: topo.CutoffSec, MaxIterations: rounds}
	runOpts := distsim.RunOptions{Solver: opts, Timeout: 20 * time.Second}
	v1 := distsim.SecurityConfig{WireVersion: distsim.WireVersion1}

	ctx := context.Background()
	hub, err := distsim.Listen(ctx, distsim.ListenConfig{Addr: "127.0.0.1:0", Security: v1})
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }() // teardown after every check has run
	ep, err := distsim.Dial(ctx, distsim.DialConfig{
		Addr: hub.Addr(), AgentIDs: distsim.AllAgentIDs(Fleet.M, Fleet.N), Buffer: 4096, Security: v1,
	})
	if err != nil {
		return err
	}
	node := ep.(*distsim.TCPNode)
	defer func() { _ = node.Close() }() // teardown after every check has run
	r.setupDone()

	// first holds every slot's first distributed allocation; later rounds
	// must repeat it bit for bit, so the run keeps no allocation per round.
	first := make([]*core.Allocation, slots)
	times := newOpTimes(slots)
	var plainRound, tracedRound []float64 // traced runs: ms per protocol round by kind
	var wire distsim.TransportStats       // traced solves' hub traffic
	var wireRounds int
	r.phaseBegin()
	start := time.Now()
	for k := 0; r.moreRounds(k, start); k++ {
		on := r.tracedRound(k)
		rsp := r.span(on, noParent, "bench.dist_tcp.round")
		for s, inst := range insts {
			r.attempted++
			var before distsim.TransportStats
			if on {
				before = hub.Stats()
			}
			sp := r.span(on, rsp.Context(), "distsim.Run")
			ts := time.Now()
			res, err := distsim.Run(ctx, inst, runOpts, node)
			d := time.Since(ts)
			sp.End()
			if err != nil {
				r.opFailed("slot %d: %v", order[s], err)
				if errors.Is(err, distsim.ErrClosed) || errors.Is(err, distsim.ErrAborted) {
					return fmt.Errorf("the node is down after a failed solve: %w", err)
				}
				continue
			}
			if first[s] == nil {
				first[s] = res.Allocation
			} else if err := sameAllocation(res.Allocation, first[s]); err != nil {
				r.problem("round %d slot %d: the solve differs from the slot's first: %v", k, order[s], err)
			}
			it := float64(res.Stats.Iterations)
			times.add(s, d, res.Stats.Iterations)
			if !on {
				plainRound = append(plainRound, ms(d)/it)
				continue
			}
			tracedRound = append(tracedRound, ms(d)/it)
			after := hub.Stats()
			wire.MessagesSent += after.MessagesSent - before.MessagesSent
			wire.MessagesReceived += after.MessagesReceived - before.MessagesReceived
			wire.BytesSent += after.BytesSent - before.BytesSent
			wire.BytesReceived += after.BytesReceived - before.BytesReceived
			wire.Flushes += after.Flushes - before.Flushes
			wireRounds += res.Stats.Iterations
		}
		rsp.End()
	}

	r.phaseEnd()
	times.set(r)

	compute := r.checkDist(insts, order, first, opts, topo.CutoffSec)
	if !r.cfg.Traced {
		return nil
	}
	r.set("core.iters_per_slot", float64(rounds))
	r.set("core.cold_iters", float64(rounds))
	if wireRounds > 0 {
		wr := float64(wireRounds)
		r.set("dist.msgs_per_round", float64(wire.MessagesReceived)/wr)
		r.set("dist.flushes_per_round", float64(wire.Flushes)/wr)
		r.set("dist.wire_bytes_per_round", float64(wire.BytesSent+wire.BytesReceived)/wr)
	}
	if wire.Flushes > 0 {
		r.set("dist.msgs_per_flush", float64(wire.MessagesSent)/float64(wire.Flushes))
	}
	r.set("dist.compute_ms_per_round", compute)
	r.set("dist.messaging_ms_per_round", quantile(tracedRound, 0.5)-compute)
	r.set("trace.overhead_pct", overheadPct(plainRound, tracedRound))
	return nil
}

// checkDist solves every slot in-process with the same options (apart from
// the measured phase) and requires each slot's distributed allocation (nil
// when every solve of the slot failed) to be bit-identical to it and the
// in-process allocation to pass the constraint checks. It returns the
// in-process ms per Iterate on the first slot's state after the capped
// solve, the compute share of a protocol round.
func (r *runner) checkDist(insts []*core.Instance, order []int, allocs []*core.Allocation, opts core.Options, cutoff float64) float64 {
	var compute float64
	for s, inst := range insts {
		eng, err := core.NewEngine(inst, opts)
		if err != nil {
			r.problem("slot %d in-process reference: %v", order[s], err)
			continue
		}
		state := core.NewState(Fleet.M, Fleet.N)
		ref, _, st, err := eng.SolveState(state)
		if err != nil && !errors.Is(err, core.ErrNotConverged) {
			r.problem("slot %d in-process reference: %v", order[s], err)
			eng.Close()
			continue
		}
		if s == 0 && r.cfg.Traced {
			compute = perCallUS(func() {
				if err := eng.Iterate(state); err != nil {
					r.problem("compute timing: %v", err)
				}
			}) / 1e3
		}
		eng.Close()
		residual := st.FinalResidual
		c, err := coeffsOf(inst, opts.Strategy)
		if err != nil {
			r.problem("slot %d: %v", order[s], err)
			continue
		}
		if _, err := c.checkAllocation(ref, cutoff, c.capacitySlack(residual)); err != nil {
			r.problem("slot %d in-process allocation: %v", order[s], err)
		}
		if a := allocs[s]; a != nil {
			if err := sameAllocation(a, ref); err != nil {
				r.problem("slot %d: distributed vs in-process: %v", order[s], err)
			}
		}
	}
	return compute
}

// sameAllocation requires bit-identical routing and power decisions.
func sameAllocation(a, b *core.Allocation) error {
	if len(a.Lambda) != len(b.Lambda) || len(a.MuMW) != len(b.MuMW) || len(a.NuMW) != len(b.NuMW) {
		return fmt.Errorf("shapes differ")
	}
	for i := range a.Lambda {
		if len(a.Lambda[i]) != len(b.Lambda[i]) {
			return fmt.Errorf("row %d shapes differ", i)
		}
		for j, v := range a.Lambda[i] {
			if math.Float64bits(v) != math.Float64bits(b.Lambda[i][j]) {
				return fmt.Errorf("λ[%d][%d] = %v, want %v", i, j, v, b.Lambda[i][j])
			}
		}
	}
	for j := range a.MuMW {
		if math.Float64bits(a.MuMW[j]) != math.Float64bits(b.MuMW[j]) || math.Float64bits(a.NuMW[j]) != math.Float64bits(b.NuMW[j]) {
			return fmt.Errorf("datacenter %d power (%v, %v), want (%v, %v)", j, a.MuMW[j], a.NuMW[j], b.MuMW[j], b.NuMW[j])
		}
	}
	return nil
}
