package distsim

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/telemetry/tracing"
)

// chaosTrace enables stderr tracing of every degrade decision (stale
// fallbacks, missed reports, death declarations). Set UFC_CHAOS_DEBUG=1
// when a chaos run's replay diverges: diffing two traces pins the first
// decision that flipped.
var chaosTrace = os.Getenv("UFC_CHAOS_DEBUG") != ""

// This file implements the envelope around every message wait of the
// agent loops (protocol_agents.go). The numerical round structure is the
// same under both failure policies; what the policy decides is what
// happens around each wait:
//
//   - every outbound message is recorded by a Retrier. Under the
//     resilient policy it is retransmitted with exponential backoff +
//     deterministic jitter while the sender's next wait is blocked
//     (proactive resend); under both, a peer's duplicate reveals that our
//     response to it was lost and triggers a resend (solicited resend);
//   - every inbound stream (from, kind) is deduplicated by an iteration
//     floor, so retransmissions and fault-injected duplicates are
//     numerically inert;
//   - every round phase has a deadline. Under fail-fast a missed one
//     fails the wait with ErrTimeout. Under the resilient policy it is a
//     degrade deadline: a peer silent past it is degraded to its last
//     iterate (bounded staleness, capped by Resilience.StalenessCap), and
//     the coordinator declares agents dead after Resilience.DeadAfter
//     consecutive missed reports, broadcasting the dead set in the
//     control payload so the fleet routes around them;
//   - a front-end that dies before delivering its final routing is
//     finalized by proximity fallback: all of its demand goes to the
//     nearest datacenter.
//
// Determinism: message drops are pure hashes of (seed, link, kind, iter,
// attempt) in FaultTransport, crashes and partitions are keyed on the
// round number, and the degrade deadlines are orders of magnitude longer
// than the retransmission backoff — so for a fixed fault seed the set of
// messages that ultimately get through (and with them every float the
// protocol computes) replays identically run over run.

// resMailbox is an agent's receive buffer: it parks out-of-phase
// messages, suppresses duplicates by per-stream iteration floors, and
// surfaces duplicates to an onDup hook so the owner can retransmit the
// response the peer evidently lost.
type resMailbox struct {
	box     *Mailbox
	pending []Message
	ctx     context.Context
	// floor holds each sender's stream floors, indexed by Kind: the last
	// iteration of the (sender, kind) stream consumed or skipped.
	floor map[string]*[KindFinalAck + 1]int
	// onDup is invoked for every duplicate (a message at or below its
	// stream's floor). Duplicates signal that the peer has not seen our
	// response to the original; the hook retransmits it. May be nil.
	onDup func(m Message)
}

func newResMailbox(ctx context.Context, t Transport, id string) (*resMailbox, error) {
	box, err := t.Inbox(id)
	if err != nil {
		return nil, err
	}
	return &resMailbox{box: box, ctx: ctx, floor: make(map[string]*[KindFinalAck + 1]int)}, nil
}

// streamFloor returns the floor of the (from, kind) stream. kind must be
// a protocol Kind; recv drops messages of any other.
func (mb *resMailbox) streamFloor(from string, kind Kind) *int {
	f := mb.floor[from]
	if f == nil {
		f = new([KindFinalAck + 1]int)
		mb.floor[from] = f
	}
	return &f[kind]
}

// skipTo records that the owner degraded past (from, kind) up to iter:
// the message is no longer wanted, and a late arrival must be treated as
// a duplicate (triggering the solicited-resend hook, which helps a slow
// peer catch up instead of feeding us a stale iterate).
func (mb *resMailbox) skipTo(from string, kind Kind, iter int) {
	if f := mb.streamFloor(from, kind); iter > *f {
		*f = iter
	}
}

// phase is one bounded wait of a protocol round: receive messages of one
// kind/iteration, retransmitting via onRetry with backoff while blocked
// (when the policy has a retransmission budget), and giving up at the
// deadline.
type phase struct {
	mb      *resMailbox
	pol     *Resilience
	self    string
	iter    int
	attempt int
	onRetry func() error
	retry   waitTimer
	degrade waitTimer
	expired bool
}

func newPhase(mb *resMailbox, pol *Resilience, self string, iter int, onRetry func() error) *phase {
	p := &phase{mb: mb, pol: pol, self: self, iter: iter, onRetry: onRetry, retry: noTimer{}}
	if !pol.failFast() {
		p.retry = pol.tf.newTimer(pol.backoff(self, iter, 0))
	}
	p.degrade = pol.tf.newTimer(pol.MessageDeadline)
	return p
}

func (p *phase) stop() {
	p.retry.Stop()
	p.degrade.Stop()
}

// recvPollEvery is how many queued messages a wait takes between looks at
// its timers and context, so a stream of messages it does not want
// cannot hold off its deadline or its cancellation.
const recvPollEvery = 64

// recv returns the next fresh message matching kind and iter. ok=false
// without an error means the degrade deadline expired: the caller falls
// back to its stale iterate for whatever is still missing. Under
// fail-fast the deadline is an ErrTimeout error instead. Queued messages
// are taken under the mailbox's lock; only an empty mailbox makes the
// wait select on its arrival signal, the timers and the context.
func (p *phase) recv(kind Kind, iter int) (Message, bool, error) {
	for idx := 0; idx < len(p.mb.pending); idx++ {
		msg := p.mb.pending[idx]
		floor := p.mb.streamFloor(msg.From, msg.Kind)
		if msg.Iter <= *floor {
			// Degraded past while parked; drop silently (the peer was
			// already answered or is being helped by skipTo's dup path).
			p.mb.pending = append(p.mb.pending[:idx], p.mb.pending[idx+1:]...)
			idx--
			continue
		}
		if msg.Kind == kind && msg.Iter == iter {
			p.mb.pending = append(p.mb.pending[:idx], p.mb.pending[idx+1:]...)
			*floor = msg.Iter
			return msg, true, nil
		}
	}
	if p.expired {
		return Message{}, false, nil
	}
	for taken := 0; ; {
		msg, ok, closed := p.mb.box.pop()
		if ok {
			if p.accept(msg, kind, iter) {
				return msg, true, nil
			}
			if taken++; taken < recvPollEvery {
				continue
			}
			taken = 0
		} else if closed {
			return Message{}, false, ErrAborted
		}
		if stop, err := p.await(kind, iter, !ok); stop || err != nil {
			return Message{}, false, err
		}
	}
}

// accept files one message taken from the mailbox and reports whether it
// is the one the wait is for. Non-protocol messages are dropped,
// duplicates go to the onDup hook, and fresh messages of another kind or
// round are parked in pending.
func (p *phase) accept(msg Message, kind Kind, iter int) bool {
	if msg.Kind < KindRouting || msg.Kind > KindFinalAck {
		return false // not a protocol message
	}
	floor := p.mb.streamFloor(msg.From, msg.Kind)
	if msg.Iter <= *floor {
		if p.mb.onDup != nil {
			p.mb.onDup(msg)
		}
		return false
	}
	if msg.Kind == kind && msg.Iter == iter {
		*floor = msg.Iter
		return true
	}
	p.mb.pending = append(p.mb.pending, msg)
	return false
}

// await handles the wait's timers and context: with block set (the
// mailbox is empty) it also waits for the mailbox's arrival signal;
// otherwise it only looks. stop reports that the wait is over: with a nil
// error the degrade deadline expired and recv returns ok=false; otherwise
// the deadline failed a fail-fast wait, the context ended or a
// retransmission failed.
func (p *phase) await(kind Kind, iter int, block bool) (stop bool, err error) {
	var retry, deadline, done bool
	if block {
		select {
		case <-p.mb.box.ready:
		case <-p.retry.C():
			retry = true
		case <-p.degrade.C():
			deadline = true
		case <-p.mb.ctx.Done():
			done = true
		}
	} else {
		select {
		case <-p.retry.C():
			retry = true
		case <-p.degrade.C():
			deadline = true
		case <-p.mb.ctx.Done():
			done = true
		default:
		}
	}
	switch {
	case done:
		return true, p.mb.ctx.Err()
	case deadline:
		if p.pol.failFast() {
			return true, fmt.Errorf("kind %d iter %d: %w", kind, iter, ErrTimeout)
		}
		p.expired = true
		p.pol.Tracer.Event(tracing.Context{}, "proto.degrade",
			tracing.I64("iter", int64(p.iter)), tracing.I64("kind", int64(kind)))
		p.pol.Flight.Dump("degrade-deadline")
		return true, nil
	case retry && p.attempt < p.pol.MaxRetries:
		if p.onRetry != nil {
			if err := p.onRetry(); err != nil {
				return true, err
			}
		}
		p.attempt++
		p.pol.Tracer.Event(tracing.Context{}, "proto.retry",
			tracing.I64("iter", int64(p.iter)), tracing.I64("attempt", int64(p.attempt)))
		p.retry.Reset(p.pol.backoff(p.self, p.iter, p.attempt))
	}
	return false, nil
}

// worker is the envelope every agent loop runs in: the agent's mailbox
// and retransmission record, and its view of its peers — the agents of
// its index set, kept by slot with, per slot, whether the peer's message
// of the current round has arrived, how many consecutive rounds it has
// missed, and whether the coordinator declared it dead.
type worker struct {
	mb    *resMailbox
	ret   *Retrier
	pol   Resilience
	self  string
	coord string

	ids   []string       // peer ids by slot
	slots map[string]int // peer slots by id
	dead  []bool
	got   []bool
	stale []int
}

// newWorker opens self's mailbox for a loop whose peers are ids.
func newWorker(ctx context.Context, tr Transport, pol Resilience, tab *idTable, self string, ids []string) (*worker, error) {
	mb, err := newResMailbox(ctx, tr, self)
	if err != nil {
		return nil, err
	}
	w := &worker{
		mb: mb, ret: NewRetrier(tr), pol: pol, self: self, coord: tab.coord, ids: ids,
		slots: make(map[string]int, len(ids)), dead: make([]bool, len(ids)), got: make([]bool, len(ids)), stale: make([]int, len(ids)),
	}
	for t, id := range ids {
		w.slots[id] = t
	}
	return w, nil
}

// slot returns the peer slot of id, or -1 when id is not a peer.
func (w *worker) slot(id string) int {
	if t, ok := w.slots[id]; ok {
		return t
	}
	return -1
}

// gather is a round's receive phase: it collects the kind messages of
// round iter from the live peers, copying payload element c of the
// peer in slot t to dst[c][t] (and its trace context to traces[t] when
// traces is non-nil), then counts the peers still silent at the deadline
// as missed: the caller falls back to their last iterate. A blocked wait
// retransmits our resend message of round resendIter to the peers still
// missing. factor is the wait's rung on the deadline ladder.
func (w *worker) gather(kind Kind, iter int, factor time.Duration, resend Kind, resendIter int, traces []tracing.Context, dst ...[]float64) (missed int, err error) {
	live := 0
	for t := range w.ids {
		w.got[t] = false
		if !w.dead[t] {
			live++
		}
	}
	onRetry := func() error { return w.resendMissing(resend, resendIter) }
	ph := newPhase(w.mb, w.pol.ladder(factor), w.self, iter, onRetry)
	defer ph.stop()
	for recvd := 0; recvd < live; {
		msg, ok, err := ph.recv(kind, iter)
		if err != nil {
			return 0, fmt.Errorf("%s iter %d: %w", w.self, iter, err)
		}
		if !ok {
			break // degrade deadline: count the silent peers as missed
		}
		// The sender identifies the slot: ã_ij arrives from dc-j,
		// (λ̃_ij, φ_ij) from fe-i, a residual report from its agent.
		t := w.slot(msg.From)
		if t < 0 || w.dead[t] || w.got[t] || len(msg.Payload) != len(dst) {
			continue
		}
		for c, d := range dst {
			d[t] = msg.Payload[c]
		}
		if traces != nil {
			traces[t] = msg.Trace
		}
		w.got[t] = true
		recvd++
	}
	for t, id := range w.ids {
		if w.dead[t] {
			continue
		}
		if w.got[t] {
			w.stale[t] = 0
			continue
		}
		// Stale-block fallback: the caller keeps the previous round's
		// value for this peer.
		missed++
		w.stale[t]++
		if chaosTrace {
			fmt.Fprintf(os.Stderr, "trace: %s missed kind %d from %s @%d (count %d)\n", w.self, kind, id, iter, w.stale[t])
		}
		if w.stale[t] > w.pol.StalenessCap {
			return 0, fmt.Errorf("%s iter %d: %s stale %d rounds: %w", w.self, iter, id, w.stale[t], ErrStale)
		}
		w.mb.skipTo(id, kind, iter)
	}
	return missed, nil
}

// resendMissing retransmits our kind message of round iter to every live
// peer whose message of the current round has not arrived.
func (w *worker) resendMissing(kind Kind, iter int) error {
	for t, id := range w.ids {
		if !w.dead[t] && !w.got[t] {
			if err := w.ret.Resend(id, kind, iter); err != nil {
				return err
			}
		}
	}
	return nil
}

// control closes a front-end's or datacenter's round: it reports the
// residual to the coordinator, waits for the control answer —
// retransmitting the report while blocked — and applies the dead mask the
// control carries; an agent that finds itself on the dead list returns
// ErrDeclaredDead. Rounds never advance past a missed control (the
// coordinator might have said stop), so DeadAfter missed attempts mean
// the coordinator is gone.
func (w *worker) control(iter int, residual float64, trace tracing.Context) (stop bool, err error) {
	if err := w.ret.Send(w.coord, Message{
		Kind: KindReport, Iter: iter, From: w.self, Payload: []float64{residual}, Trace: trace,
	}); err != nil {
		return false, fmt.Errorf("%s iter %d report: %w", w.self, iter, err)
	}
	ctl, ok, err := w.awaitCoord(KindControl, KindReport, iter)
	if err != nil {
		return false, fmt.Errorf("%s iter %d control: %w", w.self, iter, err)
	}
	if !ok {
		return false, fmt.Errorf("%s iter %d control: %w", w.self, iter, ErrCoordinatorLost)
	}
	// The control payload lists the dead agents' wire indices (see
	// runCoordinator).
	for _, v := range ctl.Payload {
		id := agentID(uint32(v))
		if id == w.self {
			return false, fmt.Errorf("%s iter %d: %w", w.self, iter, ErrDeclaredDead)
		}
		if t := w.slot(id); t >= 0 {
			w.dead[t] = true
		}
	}
	return ctl.Stop, nil
}

// finish delivers the agent's final message and waits for the
// coordinator's ack, retransmitting while blocked. Under the resilient
// policy an unacked final is not an error: the coordinator may already
// hold it (ack lost) or has finalized around us by fallback.
func (w *worker) finish(final Message) error {
	if err := w.ret.Send(w.coord, final); err != nil {
		return err
	}
	if _, _, err := w.awaitCoord(KindFinalAck, KindFinal, final.Iter); err != nil {
		return fmt.Errorf("%s final: %w", w.self, err)
	}
	return nil
}

// awaitCoord waits for the coordinator's answer of kind want to our
// message of kind sent in round iter, retransmitting it while blocked, and
// retries the whole wait up to DeadAfter times; ok=false means every
// attempt expired. The answer legitimately takes a full coordinator
// gather (coordRoundFactor deadlines) when the coordinator is degrading
// around a dead agent — wait on that timescale, not the peer one.
func (w *worker) awaitCoord(want, sent Kind, iter int) (Message, bool, error) {
	cpol := w.pol.ladder(coordRoundFactor)
	onRetry := func() error { return w.ret.Resend(w.coord, sent, iter) }
	for try := 0; try < w.pol.DeadAfter; try++ {
		ph := newPhase(w.mb, cpol, w.self, iter, onRetry)
		msg, ok, err := ph.recv(want, iter)
		ph.stop()
		if err != nil || ok {
			return msg, ok, err
		}
	}
	return Message{}, false, nil
}
