package distsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Protocol errors.
var (
	ErrTimeout = errors.New("distsim: timed out waiting for a message")
	ErrAborted = errors.New("distsim: protocol aborted")
)

// RunOptions configures a distributed run.
type RunOptions struct {
	Solver core.Options
	// Timeout is the deadline of every message wait under the fail-fast
	// policy (Resilience nil; default 30s): a wait that misses it fails
	// the run with ErrTimeout. With Resilience set, the per-phase
	// MessageDeadline governs waits instead.
	Timeout time.Duration
	// Resilience selects the failure policy of the run. Nil is fail-fast:
	// nothing is retransmitted, and a missed deadline or any agent's error
	// aborts the run. Non-nil (even zero-valued) is resilient: bounded
	// retransmission with backoff, duplicate suppression, per-phase
	// degrade deadlines with stale-iterate fallback, and coordinator
	// liveness tracking with proximity-routing finalization for dead
	// front-ends. Both policies run the same agent loops, on dense and
	// sparse engines alike.
	Resilience *Resilience
}

// Degradation reports how a resilient run deviated from fault-free
// operation. Nil on a Result means the run saw no degradation at all.
type Degradation struct {
	// DeadAgents are agents the coordinator declared dead after
	// Resilience.DeadAfter consecutive missed reports.
	DeadAgents []string
	// MissedReports counts report slots that hit the degrade deadline.
	MissedReports int
	// StaleRounds counts coordinator rounds completed with at least one
	// missing report.
	StaleRounds int
	// ProximityFrontEnds lists front-ends whose final routing was
	// reconstructed by proximity fallback (all load to the nearest
	// datacenter) because the agent died before delivering it.
	ProximityFrontEnds []int
	// WorkerErrors are failures of local non-coordinator agents that the
	// resilient run tolerated (e.g. simulated crashes).
	WorkerErrors []string
}

// Result of a distributed run.
type Result struct {
	Allocation *core.Allocation
	Breakdown  core.Breakdown
	Stats      *core.Stats
	// Degradation is non-nil when a resilient run degraded (dead agents,
	// missed reports, proximity fallback or tolerated worker failures).
	Degradation *Degradation
}

// Run executes the distributed 4-block ADM-G protocol over the transport:
// M front-end agents, N datacenter agents and one coordinator exchange the
// messages of Fig. 2 until the coordinator detects convergence. The caller
// supplies a transport already registered with the ids of AllAgentIDs.
// Cancelling ctx aborts the protocol between message waits and iteration
// phases.
func Run(ctx context.Context, inst *core.Instance, opts RunOptions, transport Transport) (*Result, error) {
	return RunAgents(ctx, inst, opts, transport, allIDs(inst.Cloud.M(), inst.Cloud.N()))
}

// RunAgents runs only the named agents ("fe-<i>", "dc-<j>", "coord") over
// the transport; the remaining agents are expected to run elsewhere (other
// goroutines or other processes connected to the same hub). Every process
// must construct the agents from the same instance and solver options —
// the engine is deterministic, so all participants agree on the effective
// parameters. The Result is non-nil only when the coordinator is among the
// local agents; other participants receive (nil, nil) on clean shutdown.
// Every goroutine RunAgents starts has exited when it returns, so one
// transport can carry any number of runs back to back.
func RunAgents(ctx context.Context, inst *core.Instance, opts RunOptions, transport Transport, agentIDs []string) (*Result, error) {
	engine, err := core.NewEngine(inst, opts.Solver)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		// A nil context used to be silently promoted to context.Background(),
		// which detached the whole protocol from caller cancellation; every
		// entry point is context-first now, so a nil here is a caller bug.
		return nil, fmt.Errorf("distsim: nil context: %w", core.ErrBadOptions)
	}
	pol := opts.policy()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tab := newIDTable(m, n)

	runs := make([]func() error, len(agentIDs)) // runs[k] is agent agentIDs[k]
	hasCoord := false
	resCh := make(chan *coordResult, 1)
	for k, id := range agentIDs {
		var idx int // per iteration: the closures below capture it
		switch {
		case id == coordID():
			hasCoord = true
			runs[k] = func() error {
				res, err := runCoordinator(ctx, engine, transport, tab, pol)
				if err == nil {
					resCh <- res
				}
				return err
			}
		case parseID(id, "fe-", &idx) && idx >= 0 && idx < m:
			runs[k] = func() error { return runFrontEnd(ctx, engine, transport, tab, idx, pol) }
		case parseID(id, "dc-", &idx) && idx >= 0 && idx < n:
			runs[k] = func() error { return runDatacenter(ctx, engine, transport, tab, idx, pol) }
		default:
			return nil, fmt.Errorf("distsim: agent id %q invalid for a %dx%d cloud", id, m, n)
		}
	}

	errs := make([]error, len(runs))
	exited := make(chan int, len(runs)) // k once errs[k] is final
	for k, run := range runs {
		go func() { errs[k] = run(); exited <- k }()
	}
	// Any exited agent — finished or failed — stops reading its mailbox
	// while stragglers may still retransmit to it. Its mailbox drops them,
	// so a full mailbox can never block live senders and cascade into a
	// fleet-wide deadlock on a synchronous transport. The exited
	// coordinator's mailbox instead answers late finals (answerFinals).
	// Both end before RunAgents returns, so a later run on the transport
	// receives normally and never sees this run's stragglers.
	var exitedBoxes []*Mailbox
	answerCtx, stopAnswering := context.WithCancel(ctx)
	var answering sync.WaitGroup
	defer func() {
		stopAnswering()
		answering.Wait() //ufc:ctx bounded: stopAnswering, called just above, ends the responder's wait
		for _, mb := range exitedBoxes {
			mb.setDrop(false)
		}
	}()
	var firstErr error
	var workerErrs []string
	for range runs {
		k := <-exited
		id, err := agentIDs[k], errs[k]
		if mb, ierr := transport.Inbox(id); ierr == nil {
			exitedBoxes = append(exitedBoxes, mb)
			if id == tab.coord {
				answering.Add(1)
				go func() {
					defer answering.Done()
					answerFinals(answerCtx, transport, mb, id)
				}()
			} else {
				mb.setDrop(true)
			}
		}
		if err == nil {
			continue
		}
		if !pol.failFast() && id != tab.coord {
			// Degraded operation tolerates non-coordinator failures
			// (crashed or declared-dead agents); the coordinator routes
			// around them and still produces a result.
			workerErrs = append(workerErrs, id+": "+err.Error())
			continue
		}
		if firstErr == nil {
			firstErr = err
			// Unblock everything else.
			_ = transport.Close() //ufc:discard firstErr is the failure being reported; Close is only a wakeup
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !hasCoord {
		return nil, nil
	}
	res := <-resCh

	state := core.NewState(m, n)
	for i := 0; i < m; i++ {
		copy(state.Lambda[i], res.lambda[i])
	}
	alloc := engine.Finalize(state)
	degr := res.degr
	if len(workerErrs) > 0 {
		if degr == nil {
			degr = &Degradation{}
		}
		degr.WorkerErrors = workerErrs
	}
	return &Result{
		Allocation:  alloc,
		Breakdown:   core.Evaluate(inst, alloc),
		Stats:       res.stats,
		Degradation: degr,
	}, nil
}

// policy resolves the failure policy of a run. Fail-fast is the
// resilient machinery with no retransmission budget (MaxRetries 0): every
// wait's deadline is Timeout, no retry timer is armed, and a missed
// deadline fails the wait with ErrTimeout instead of degrading.
func (o RunOptions) policy() Resilience {
	if o.Resilience != nil {
		return o.Resilience.withDefaults()
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return Resilience{MessageDeadline: timeout, DeadAfter: 1, tf: realTimers{}}
}

// answerFinals serves the exited coordinator's mailbox until ctx ends or
// the mailbox closes: it acknowledges every KindFinal for the iteration it
// carries and discards everything else, then leaves the mailbox dropping.
// An agent whose final ack was lost after the coordinator returned
// retransmits its final and is answered here, instead of waiting out
// every deadline of its final phase — as TCP's TIME_WAIT re-acknowledges
// a retransmitted FIN. Under fail-fast nothing is retransmitted, so it
// sees nothing.
func answerFinals(ctx context.Context, t Transport, mb *Mailbox, coord string) {
	defer mb.setDrop(true)
	for {
		m, err := mb.Recv(ctx)
		if err != nil {
			return
		}
		if m.Kind == KindFinal {
			_ = t.Send(m.From, Message{Kind: KindFinalAck, Iter: m.Iter, From: coord}) //ufc:discard best-effort, like the running coordinator's solicited resend; the agent retries its final
		}
	}
}

// parseID extracts the integer suffix of ids like "fe-3".
func parseID(id, prefix string, out *int) bool {
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return false
	}
	v := 0
	for _, ch := range id[len(prefix):] {
		if ch < '0' || ch > '9' {
			return false
		}
		v = v*10 + int(ch-'0')
	}
	*out = v
	return true
}

// AllAgentIDs returns the transport ids required by Run for an M×N cloud:
// fe-0..fe-(M-1), dc-0..dc-(N-1) and coord.
func AllAgentIDs(m, n int) []string { return allIDs(m, n) }

// idTable precomputes the agent id strings of an M×N cloud so the
// per-iteration send loops never format ids (each protocol iteration
// addresses ~2·M·N+2·(M+N) messages).
type idTable struct {
	fe, dc []string
	coord  string
}

func newIDTable(m, n int) *idTable {
	t := &idTable{fe: make([]string, m), dc: make([]string, n), coord: coordID()}
	for i := range t.fe {
		t.fe[i] = feID(i)
	}
	for j := range t.dc {
		t.dc[j] = dcID(j)
	}
	return t
}

type coordResult struct {
	lambda [][]float64
	stats  *core.Stats
	degr   *Degradation
}

// peersOf returns the ids of the peers a front-end or datacenter exchanges
// messages with: its row or column of the engine's feasibility mask, in
// ascending index order (every index on a dense engine).
func peersOf(mask []int32, all []string) []string {
	ids := make([]string, len(mask))
	for t, k := range mask {
		ids[t] = all[k]
	}
	return ids
}
