package distsim_test

// Chaos-matrix tests for the fault-tolerant protocol. Everything here is
// driven by seeded FaultPlans, so each scenario is deterministic and
// replayable: the CI smoke step runs this file with
// `go test ./internal/distsim -run Chaos -race`.

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// chaosPolicy is tuned for test speed: fast retransmits, and a degrade
// deadline short enough that rounds blocked on a dead peer do not stall
// the suite, yet orders of magnitude above in-memory delivery latency so
// live messages never miss it even when the whole test suite is
// saturating the scheduler (the determinism precondition).
func chaosPolicy() *distsim.Resilience {
	return &distsim.Resilience{
		RetryInterval:   time.Millisecond,
		MaxRetries:      8,
		MessageDeadline: 500 * time.Millisecond,
		DeadAfter:       3,
		StalenessCap:    12,
	}
}

// runChaos executes one resilient distributed solve under plan.
func runChaos(t *testing.T, inst *core.Instance, plan *distsim.FaultPlan, pol *distsim.Resilience) *distsim.Result {
	t.Helper()
	return runChaosWith(t, inst, core.Options{}, plan, pol)
}

// runChaosWith is runChaos with explicit solver options.
func runChaosWith(t *testing.T, inst *core.Instance, opts core.Options, plan *distsim.FaultPlan, pol *distsim.Resilience) *distsim.Result {
	t.Helper()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	inner := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{})
	tr, err := distsim.NewFaultTransport(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: opts, Resilience: pol}, tr)
	_ = tr.Close() //ufc:discard in-process transport; Run already surfaced any failure
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return res
}

// slotBytes renders a result the way cmd/ufcsim logs a slot, so replay
// equality is asserted on the actual NDJSON wire bytes.
func slotBytes(t *testing.T, res *distsim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := telemetry.NewNDJSONEmitter(&buf)
	if err := emit.Emit(experiments.NewSlotRecord(0, core.Hybrid, res.Breakdown, res.Allocation, res.Stats, false)); err != nil {
		t.Fatal(err)
	}
	if err := emit.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosZeroFaultPlanBitIdentical pins the acceptance criterion that
// enabling the hardened protocol with an empty fault plan reproduces the
// sequential engine bit for bit.
func TestChaosZeroFaultPlanBitIdentical(t *testing.T) {
	inst := testInstance(t, 1)
	seqAlloc, seqBD, seqStats, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runChaos(t, inst, &distsim.FaultPlan{Seed: 11}, chaosPolicy())
	if res.Degradation != nil {
		t.Fatalf("zero-fault run degraded: %+v", res.Degradation)
	}
	if res.Stats.Iterations != seqStats.Iterations || res.Breakdown.UFC != seqBD.UFC {
		t.Fatalf("zero-fault resilient run diverged: %d iters UFC %v, sequential %d iters UFC %v",
			res.Stats.Iterations, res.Breakdown.UFC, seqStats.Iterations, seqBD.UFC)
	}
	for i := range seqAlloc.Lambda {
		for j := range seqAlloc.Lambda[i] {
			if seqAlloc.Lambda[i][j] != res.Allocation.Lambda[i][j] {
				t.Fatalf("lambda[%d][%d]: resilient %v vs sequential %v (must be bit-identical)",
					i, j, res.Allocation.Lambda[i][j], seqAlloc.Lambda[i][j])
			}
		}
	}
}

// chaosLinkCells is the loss × delay × duplication sweep of the chaos
// matrices.
var chaosLinkCells = []struct {
	name string
	link distsim.LinkFault
}{
	{"loss10", distsim.LinkFault{DropProb: 0.1}},
	{"loss20", distsim.LinkFault{DropProb: 0.2}},
	{"delay", distsim.LinkFault{MaxExtraDelayMS: 3}},
	{"dup", distsim.LinkFault{DupProb: 0.3}},
	{"loss+delay", distsim.LinkFault{DropProb: 0.15, MaxExtraDelayMS: 2, DelayProb: 0.5}},
	{"loss+dup", distsim.LinkFault{DropProb: 0.1, DupProb: 0.2}},
}

// TestChaosMatrix sweeps loss × delay × duplication. Link faults are
// recoverable by retransmission and deduplication, so every cell must
// produce the exact fault-free solution — and two same-seed runs must
// produce byte-identical slot logs.
func TestChaosMatrix(t *testing.T) {
	chaosLinkMatrix(t, testInstance(t, 1), core.Options{})
}

// TestChaosMatrixSparse runs the link-fault sweep on a sparse topology: a
// small two-region fleet solved with its region cutoff, whose agents
// exchange messages only across intra-region pairs. Every cell must
// reproduce the fault-free masked solution and replay byte-identically.
func TestChaosMatrixSparse(t *testing.T) {
	inst, opts := chaosSparseFleet(t)
	chaosLinkMatrix(t, inst, opts)
}

// chaosSparseFleet is the sparse chaos topology: 8 front-ends and 4
// datacenters in 2 regions, with the solver's cutoff at the region
// cutoff.
func chaosSparseFleet(t *testing.T) (*core.Instance, core.Options) {
	t.Helper()
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 4, M: 8, Regions: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return st.Instance(1), core.Options{SparsityCutoff: st.CutoffSec}
}

// chaosLinkMatrix runs every link-fault cell on inst under opts.
func chaosLinkMatrix(t *testing.T, inst *core.Instance, opts core.Options) {
	_, seqBD, seqStats, err := core.Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range chaosLinkCells {
		t.Run(cell.name, func(t *testing.T) {
			plan := &distsim.FaultPlan{Seed: 1234, Links: []distsim.LinkFault{cell.link}}
			res := runChaosWith(t, inst, opts, plan, chaosPolicy())
			if !res.Stats.Converged {
				t.Fatalf("cell did not converge: %+v", res.Stats)
			}
			if res.Breakdown.UFC != seqBD.UFC || res.Stats.Iterations != seqStats.Iterations {
				t.Fatalf("recoverable faults changed the solution: UFC %v (want %v), iters %d (want %d)",
					res.Breakdown.UFC, seqBD.UFC, res.Stats.Iterations, seqStats.Iterations)
			}
			replay := runChaosWith(t, inst, opts, plan, chaosPolicy())
			if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
				t.Fatalf("same-seed replay produced different slot log:\n%s\n%s", want, got)
			}
		})
	}
}

// TestChaosSparseDatacenterCrash: on the sparse topology, a datacenter
// crash mid-solve under 10% loss must complete degraded — the crashed
// datacenter declared dead, its region's front-ends routing around it —
// and replay to a byte-identical slot log.
func TestChaosSparseDatacenterCrash(t *testing.T) {
	inst, opts := chaosSparseFleet(t)
	_, _, seqStats, err := core.Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := &distsim.FaultPlan{
		Seed:    21,
		Links:   []distsim.LinkFault{{DropProb: 0.1}},
		Crashes: []distsim.Crash{{Agent: "dc-1", AtIter: seqStats.Iterations / 2}},
	}
	res := runChaosWith(t, inst, opts, plan, chaosPolicy())
	if res.Degradation == nil || !slices.Contains(res.Degradation.DeadAgents, "dc-1") {
		t.Fatalf("crashed datacenter not declared dead: %+v", res.Degradation)
	}
	replay := runChaosWith(t, inst, opts, plan, chaosPolicy())
	if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("same-seed sparse crash replay diverged:\n%s\n%s", want, got)
	}
}

// TestChaosPartitionDeclaresDeadAndCompletes: a partition across a control
// boundary exceeds the protocol's two-round catch-up retention, so the
// isolated datacenter is declared dead and the fleet degrades around it —
// deterministically.
func TestChaosPartitionDeclaresDeadAndCompletes(t *testing.T) {
	inst := testInstance(t, 1)
	plan := &distsim.FaultPlan{
		Seed:       5,
		Partitions: []distsim.Partition{{Agents: []string{"dc-1"}, FromIter: 8, ToIter: 10}},
	}
	res := runChaos(t, inst, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("partitioned run reported no degradation")
	}
	foundDead := false
	for _, id := range res.Degradation.DeadAgents {
		if id == "dc-1" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("dc-1 not declared dead: %+v", res.Degradation)
	}
	replay := runChaos(t, inst, plan, chaosPolicy())
	if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("same-seed partition replay diverged:\n%s\n%s", want, got)
	}
}

// TestChaosLossAndDatacenterCrash is the headline acceptance scenario:
// 20% loss on every link plus a datacenter crash mid-solve. The solve
// must complete, degrade per policy (crashed datacenter declared dead),
// land within 1% UFC of the fault-free solution, and replay to
// byte-identical slot logs.
func TestChaosLossAndDatacenterCrash(t *testing.T) {
	inst := testInstance(t, 1)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &distsim.FaultPlan{
		Seed:    77,
		Links:   []distsim.LinkFault{{DropProb: 0.2}},
		Crashes: []distsim.Crash{{Agent: "dc-1", AtIter: 30}},
	}
	res := runChaos(t, inst, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("crashed run reported no degradation")
	}
	foundDead := false
	for _, id := range res.Degradation.DeadAgents {
		if id == "dc-1" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("crashed datacenter not declared dead: %+v", res.Degradation)
	}
	if rel := math.Abs(res.Breakdown.UFC-seqBD.UFC) / math.Abs(seqBD.UFC); rel > 0.01 {
		t.Fatalf("degraded UFC %v deviates %.2f%% from fault-free %v (cap 1%%)",
			res.Breakdown.UFC, 100*rel, seqBD.UFC)
	}
	replay := runChaos(t, inst, plan, chaosPolicy())
	if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("same-seed crash replay diverged:\n%s\n%s", want, got)
	}
}

// TestChaosFrontEndCrashProximityFallback: a front-end that dies before
// delivering its final routing is finalized by the proximity policy — all
// of its demand at its nearest datacenter.
func TestChaosFrontEndCrashProximityFallback(t *testing.T) {
	inst := testInstance(t, 1)
	plan := &distsim.FaultPlan{
		Seed:    9,
		Crashes: []distsim.Crash{{Agent: "fe-2", AtIter: 30}},
	}
	res := runChaos(t, inst, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("front-end crash reported no degradation")
	}
	foundProx := false
	for _, i := range res.Degradation.ProximityFrontEnds {
		if i == 2 {
			foundProx = true
		}
	}
	if !foundProx {
		t.Fatalf("fe-2 not finalized by proximity fallback: %+v", res.Degradation)
	}
	n := inst.Cloud.N()
	best := 0
	for j := 1; j < n; j++ {
		if inst.Cloud.LatencySec(2, j) < inst.Cloud.LatencySec(2, best) {
			best = j
		}
	}
	for j := 0; j < n; j++ {
		want := 0.0
		if j == best {
			want = inst.Arrivals[2]
		}
		if res.Allocation.Lambda[2][j] != want {
			t.Fatalf("proximity row lambda[2] = %v, want all %v at dc %d",
				res.Allocation.Lambda[2], inst.Arrivals[2], best)
		}
	}
}

// lateFinalTransport makes one front-end's final the last the coordinator
// collects and loses the coordinator's first ack of it: the front-end's
// finals are dropped until every other agent's final has been delivered,
// and the first KindFinalAck to it is dropped. The coordinator has then
// collected every final and returned, so only a retransmitted final can
// still get the front-end its ack.
type lateFinalTransport struct {
	distsim.Transport
	fe     string
	others int // agents whose finals must be delivered before fe's

	mu         sync.Mutex
	finals     map[string]bool
	ackDropped bool
}

func (l *lateFinalTransport) Send(to string, m distsim.Message) error {
	switch {
	case m.Kind == distsim.KindFinal && m.From != l.fe:
		err := l.Transport.Send(to, m)
		l.mu.Lock()
		l.finals[m.From] = true
		l.mu.Unlock()
		return err
	case m.Kind == distsim.KindFinal:
		l.mu.Lock()
		early := len(l.finals) < l.others
		l.mu.Unlock()
		if early {
			return nil
		}
	case m.Kind == distsim.KindFinalAck && to == l.fe:
		l.mu.Lock()
		drop := !l.ackDropped
		l.ackDropped = true
		l.mu.Unlock()
		if drop {
			return nil
		}
	}
	return l.Transport.Send(to, m)
}

// TestLateFinalAnsweredAfterCoordinatorReturns: when the coordinator's
// ack of the last final is lost, the coordinator has already returned.
// Its mailbox answers the front-end's retransmitted final, so the run
// returns in a small fraction of the front-end's final-phase wait
// (DeadAfter × 3 × MessageDeadline, 4.5 s under this policy) and is still
// the in-process solution.
func TestLateFinalAnsweredAfterCoordinatorReturns(t *testing.T) {
	inst := testInstance(t, 1)
	seqAlloc, _, seqStats, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol := chaosPolicy()
	// A steady retransmission every millisecond for the whole phase, so
	// the front-end's next final follows the lost ack at once.
	pol.BackoffFactor, pol.MaxRetries = 1, 200
	finalWait := time.Duration(pol.DeadAfter) * 3 * pol.MessageDeadline

	m, n := inst.Cloud.M(), inst.Cloud.N()
	inner := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{})
	tr := &lateFinalTransport{Transport: inner, fe: "fe-0", others: m + n - 1, finals: map[string]bool{}}
	defer func() { _ = tr.Close() }()
	start := time.Now()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Resilience: pol}, tr)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	dropped := tr.ackDropped
	tr.mu.Unlock()
	if !dropped {
		t.Fatal("the coordinator's ack to fe-0 was never sent")
	}
	if elapsed > finalWait/4 {
		t.Fatalf("run took %v: fe-0 waited out its lost final ack (final-phase wait %v)", elapsed, finalWait)
	}
	if res.Degradation != nil || res.Stats.Iterations != seqStats.Iterations {
		t.Fatalf("%d iterations (sequential %d), degradation %+v", res.Stats.Iterations, seqStats.Iterations, res.Degradation)
	}
	for i := range seqAlloc.Lambda {
		for j := range seqAlloc.Lambda[i] {
			if seqAlloc.Lambda[i][j] != res.Allocation.Lambda[i][j] {
				t.Fatalf("lambda[%d][%d]: distributed %v vs sequential %v (must be bit-identical)",
					i, j, res.Allocation.Lambda[i][j], seqAlloc.Lambda[i][j])
			}
		}
	}
}
