package distsim

import (
	"errors"
	"time"

	"repro/internal/telemetry/tracing"
)

// Resilience errors.
var (
	// ErrStale is returned when a peer exceeds the bounded-staleness cap.
	ErrStale = errors.New("distsim: peer exceeded the staleness cap")
	// ErrCoordinatorLost is returned when an agent repeatedly misses the
	// coordinator's control broadcast.
	ErrCoordinatorLost = errors.New("distsim: lost contact with the coordinator")
	// ErrDeclaredDead is returned by an agent that finds itself on the
	// coordinator's dead list (it was too slow and the fleet moved on).
	ErrDeclaredDead = errors.New("distsim: agent declared dead by the coordinator")
)

// Resilience configures the protocol-hardening layer of a distributed
// run: per-message degrade deadlines, bounded retransmission with
// exponential backoff and deterministic jitter, duplicate suppression,
// bounded staleness and liveness-based degradation. A nil Resilience in
// RunOptions selects the fail-fast policy of the same agent loops; a
// non-nil (even zero-valued) Resilience enables hardening with the
// defaults below. On a fault-free run both policies are bit-identical to
// the in-process engine, dense or sparse.
type Resilience struct {
	// RetryInterval is the first retransmission backoff (default 10ms).
	RetryInterval time.Duration
	// BackoffFactor multiplies the backoff per attempt (default 2).
	BackoffFactor float64
	// MaxRetries bounds retransmissions per blocked wait (default 5).
	MaxRetries int
	// MessageDeadline bounds each round-phase wait; a peer that stays
	// silent past it is degraded to its last iterate (default 2s).
	MessageDeadline time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac deterministically
	// (default 0.1).
	JitterFrac float64
	// StalenessCap aborts an agent when one of its live peers has been
	// stale for this many consecutive rounds (default 25). It must
	// exceed DeadAfter so the coordinator declares death first.
	StalenessCap int
	// DeadAfter is the number of consecutive missed residual reports
	// after which the coordinator declares an agent dead and degrades
	// around it permanently (default 6).
	DeadAfter int
	// Seed drives the deterministic retransmission jitter.
	Seed int64

	// Tracer, when non-nil, records protocol breadcrumbs in the flight
	// ring: per-iteration front-end root spans (whose context rides the
	// routing and report records through the hub tree), retry events and
	// degrade events. Observability only — spans never alter the message
	// schedule or the floats.
	Tracer *tracing.Recorder
	// Flight, when non-nil, dumps the flight ring when a degrade deadline
	// expires — the moments worth a postmortem. Dumps are bounded (see
	// tracing.Flight).
	Flight *tracing.Flight

	// tf overrides the timer source; tests inject a fake clock.
	tf timerFactory
}

// The deadline ladder. Wall-clock degrade decisions are deterministic
// only if every wait outlasts the worst-case *legitimate* production
// time of what it waits for by a full MessageDeadline of margin — then
// scheduler jitter can never flip a live peer into a missed one, and
// only structural silence (crash, partition, death) degrades. Routing
// rows are produced instantly after a control, so datacenters wait one
// deadline for them; a datacenter may spend that whole deadline
// degrading a silent front-end before its ã goes out, so front-ends
// wait two for aux; a front-end may in turn spend two before its
// report goes out, so the coordinator gathers for three; and a control
// answer legitimately takes a full coordinator gather, so control (and
// final-ack) waits use the coordinator's factor per attempt.
const (
	auxDeadlineFactor = 2
	coordRoundFactor  = 3
)

func (r Resilience) withDefaults() Resilience {
	if r.RetryInterval <= 0 {
		r.RetryInterval = 10 * time.Millisecond
	}
	if r.BackoffFactor < 1 {
		r.BackoffFactor = 2
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 5
	}
	if r.MessageDeadline <= 0 {
		r.MessageDeadline = 2 * time.Second
	}
	if r.JitterFrac <= 0 || r.JitterFrac >= 1 {
		r.JitterFrac = 0.1
	}
	if r.StalenessCap <= 0 {
		r.StalenessCap = 25
	}
	if r.DeadAfter <= 0 {
		r.DeadAfter = 6
	}
	if r.tf == nil {
		r.tf = realTimers{}
	}
	return r
}

// failFast reports whether r is the resolved fail-fast policy (see
// RunOptions.policy): it has no retransmission budget — withDefaults
// gives every resilient policy one — so a lost message cannot be
// recovered, no retry timer is armed and a missed deadline is fatal.
func (r *Resilience) failFast() bool { return r.MaxRetries == 0 }

// ladder returns the policy of a wait factor rungs up the deadline
// ladder. Every fail-fast wait gets the plain deadline (RunOptions.Timeout):
// a missed one aborts the run, so there is no degrade decision whose
// determinism the ladder would protect.
func (r Resilience) ladder(factor time.Duration) *Resilience {
	if !r.failFast() {
		r.MessageDeadline *= factor
	}
	return &r
}

// backoff returns the jittered delay before retransmission `attempt`
// (0-based) by agent self in round iter. The jitter is a pure hash of
// (Seed, self, iter, attempt), so a replayed run waits identically.
func (r Resilience) backoff(self string, iter, attempt int) time.Duration {
	d := float64(r.RetryInterval)
	for k := 0; k < attempt; k++ {
		d *= r.BackoffFactor
	}
	u := hash01(faultHash(r.Seed, 'j', self, self, 0, iter, attempt))
	d *= 1 + r.JitterFrac*(2*u-1)
	return time.Duration(d)
}

// timerFactory abstracts timer creation so retry/backoff behaviour is
// testable against a fake clock.
type timerFactory interface {
	newTimer(d time.Duration) waitTimer
}

// waitTimer is the minimal timer surface the wait loops need.
type waitTimer interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop()
}

type realTimers struct{}

func (realTimers) newTimer(d time.Duration) waitTimer {
	return &realTimer{t: time.NewTimer(d)}
}

type realTimer struct{ t *time.Timer }

func (rt *realTimer) C() <-chan time.Time { return rt.t.C }
func (rt *realTimer) Reset(d time.Duration) {
	if !rt.t.Stop() {
		select {
		case <-rt.t.C:
		default:
		}
	}
	rt.t.Reset(d)
}
func (rt *realTimer) Stop() { rt.t.Stop() }

// noTimer never fires: the retry timer of a policy without a
// retransmission budget.
type noTimer struct{}

func (noTimer) C() <-chan time.Time   { return nil }
func (noTimer) Reset(d time.Duration) {}
func (noTimer) Stop()                 {}

// outRec is one recorded outbound message.
type outRec struct {
	to string
	m  Message
}

// Retrier records an agent's outbound messages for the current and
// previous round so they can be retransmitted — either proactively by a
// blocked sender or on solicitation, when a peer's duplicate signals that
// our response to it was lost. All methods run on the owning agent's
// goroutine; the type needs no locking.
type Retrier struct {
	t    Transport
	recs []outRec
}

// NewRetrier wraps t for the agent loops.
func NewRetrier(t Transport) *Retrier { return &Retrier{t: t} }

// Send transmits and records the message for later retransmission.
// Errors must be handled exactly like Transport.Send errors.
func (r *Retrier) Send(to string, m Message) error {
	r.recs = append(r.recs, outRec{to: to, m: m})
	return r.t.Send(to, m)
}

// Resend retransmits every recorded message to `to` of the given kind and
// iteration. A miss (already pruned or never sent) is a no-op: the round
// has moved on and the peer must catch up through the coordinator.
func (r *Retrier) Resend(to string, kind Kind, iter int) error {
	for k := range r.recs {
		rec := &r.recs[k]
		if rec.to == to && rec.m.Kind == kind && rec.m.Iter == iter {
			if err := r.t.Send(rec.to, rec.m); err != nil {
				return err
			}
		}
	}
	return nil
}

// NewRound prunes records older than the previous round. Two rounds are
// retained: the current round's requests and the previous round's
// responses, which a lagging peer may still solicit.
func (r *Retrier) NewRound(iter int) {
	keep := r.recs[:0]
	for k := range r.recs {
		if r.recs[k].m.Iter >= iter-1 {
			keep = append(keep, r.recs[k])
		}
	}
	for k := len(keep); k < len(r.recs); k++ {
		r.recs[k] = outRec{}
	}
	r.recs = keep
}
