package distsim

// Internal tests for the retry/backoff/dedup layer: they inject a fake
// timer source through Resilience.tf, which the exported surface
// deliberately does not expose.

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock implements timerFactory. Timers never fire on their own; the
// test fires them explicitly and inspects the durations requested.
type fakeClock struct {
	mu     sync.Mutex
	timers []*fakeTimer
}

type fakeTimer struct {
	clock *fakeClock
	ch    chan time.Time
	durs  []time.Duration // creation duration followed by every Reset
}

func (c *fakeClock) newTimer(d time.Duration) waitTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	ft := &fakeTimer{clock: c, ch: make(chan time.Time)}
	ft.durs = append(ft.durs, d)
	c.timers = append(c.timers, ft)
	return ft
}

func (c *fakeClock) timer(k int) *fakeTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timers[k]
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }
func (t *fakeTimer) Stop()               {}
func (t *fakeTimer) Reset(d time.Duration) {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.durs = append(t.durs, d)
}

// fire blocks until the wait loop consumes the tick, synchronizing the
// test with the receiver.
func (t *fakeTimer) fire() { t.ch <- time.Time{} }

func (t *fakeTimer) requested() []time.Duration {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return append([]time.Duration(nil), t.durs...)
}

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	pol := Resilience{RetryInterval: 10 * time.Millisecond, Seed: 7}.withDefaults()
	base := float64(pol.RetryInterval)
	for attempt := 0; attempt < 5; attempt++ {
		d := pol.backoff("fe-2", 13, attempt)
		if d != pol.backoff("fe-2", 13, attempt) {
			t.Fatalf("backoff attempt %d not deterministic", attempt)
		}
		nominal := base
		for k := 0; k < attempt; k++ {
			nominal *= pol.BackoffFactor
		}
		lo := time.Duration(nominal * (1 - pol.JitterFrac))
		hi := time.Duration(nominal * (1 + pol.JitterFrac))
		if d < lo || d > hi {
			t.Fatalf("backoff attempt %d = %v outside jitter band [%v, %v]", attempt, d, lo, hi)
		}
	}
	if pol.backoff("fe-2", 13, 1) == pol.backoff("dc-0", 13, 1) &&
		pol.backoff("fe-2", 14, 1) == pol.backoff("dc-0", 14, 1) {
		t.Fatal("jitter does not vary with the agent identity")
	}
}

func TestPhaseRetriesWithBackoffUntilMessageArrives(t *testing.T) {
	tr := NewChanTransport([]string{"x", "coord"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{RetryInterval: 10 * time.Millisecond, MaxRetries: 3, Seed: 1, tf: clock}
	pol = pol.withDefaults()
	mb, err := newResMailbox(context.Background(), tr, "x")
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	ph := newPhase(mb, &pol, "x", 1, func() error { retries++; return nil })
	defer ph.stop()

	type out struct {
		msg Message
		ok  bool
		err error
	}
	done := make(chan out, 1)
	go func() {
		m, ok, err := ph.recv(KindControl, 1)
		done <- out{m, ok, err}
	}()

	retry := clock.timer(0) // newPhase creates retry first, degrade second
	// MaxRetries fires invoke onRetry and re-arm with the next backoff;
	// further fires are no-ops (the budget is spent).
	for k := 0; k < pol.MaxRetries+2; k++ {
		retry.fire()
	}
	if err := tr.Send("x", Message{From: "coord", Kind: KindControl, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || !res.ok {
		t.Fatalf("recv = (ok=%v, err=%v), want delivered message", res.ok, res.err)
	}
	if retries != pol.MaxRetries {
		t.Fatalf("onRetry ran %d times, want exactly MaxRetries=%d", retries, pol.MaxRetries)
	}
	durs := retry.requested()
	if len(durs) != 1+pol.MaxRetries {
		t.Fatalf("retry timer armed %d times, want %d", len(durs), 1+pol.MaxRetries)
	}
	for attempt, d := range durs {
		if want := pol.backoff("x", 1, attempt); d != want {
			t.Fatalf("retry arm %d = %v, want backoff %v", attempt, d, want)
		}
	}
}

func TestPhaseDegradeDeadlineExpires(t *testing.T) {
	tr := NewChanTransport([]string{"x"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{tf: clock}.withDefaults()
	mb, err := newResMailbox(context.Background(), tr, "x")
	if err != nil {
		t.Fatal(err)
	}
	ph := newPhase(mb, &pol, "x", 3, nil)
	defer ph.stop()
	degrade := clock.timer(1)
	if got := degrade.requested()[0]; got != pol.MessageDeadline {
		t.Fatalf("degrade timer armed with %v, want MessageDeadline %v", got, pol.MessageDeadline)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok, err := ph.recv(KindAux, 3)
		done <- ok && err == nil
	}()
	degrade.fire()
	if got := <-done; got {
		t.Fatal("recv returned a message after the degrade deadline fired")
	}
	// An expired phase answers immediately without waiting again.
	if _, ok, err := ph.recv(KindAux, 3); ok || err != nil {
		t.Fatalf("expired phase recv = (ok=%v, err=%v), want (false, nil)", ok, err)
	}
}

func TestResMailboxDeduplicatesAndSolicitsResend(t *testing.T) {
	tr := NewChanTransport([]string{"x"}, ChanOptions{})
	defer func() { _ = tr.Close() }()
	clock := &fakeClock{}
	pol := Resilience{tf: clock}.withDefaults()
	mb, err := newResMailbox(context.Background(), tr, "x")
	if err != nil {
		t.Fatal(err)
	}
	var dups []Message
	mb.onDup = func(m Message) { dups = append(dups, m) }

	send := func(iter int) {
		t.Helper()
		if err := tr.Send("x", Message{From: "fe-0", Kind: KindRouting, Iter: iter}); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	ph := newPhase(mb, &pol, "x", 1, nil)
	if _, ok, err := ph.recv(KindRouting, 1); !ok || err != nil {
		t.Fatalf("first delivery not received: ok=%v err=%v", ok, err)
	}
	ph.stop()

	// A retransmission of the consumed iterate is suppressed and surfaced
	// to the duplicate hook; the next fresh iterate still gets through.
	send(1)
	send(2)
	ph = newPhase(mb, &pol, "x", 2, nil)
	m, ok, err := ph.recv(KindRouting, 2)
	ph.stop()
	if !ok || err != nil || m.Iter != 2 {
		t.Fatalf("fresh iterate after duplicate: msg=%+v ok=%v err=%v", m, ok, err)
	}
	if len(dups) != 1 || dups[0].Iter != 1 {
		t.Fatalf("duplicate hook saw %+v, want exactly the iter-1 retransmission", dups)
	}

	// skipTo (degrading past a message) turns its late arrival into a
	// duplicate as well.
	mb.skipTo("fe-0", KindRouting, 3)
	send(3)
	send(4)
	ph = newPhase(mb, &pol, "x", 4, nil)
	m, ok, err = ph.recv(KindRouting, 4)
	ph.stop()
	if !ok || err != nil || m.Iter != 4 {
		t.Fatalf("post-skip iterate: msg=%+v ok=%v err=%v", m, ok, err)
	}
	if len(dups) != 2 || dups[1].Iter != 3 {
		t.Fatalf("skipped message not treated as duplicate: %+v", dups)
	}
}

// sendLog records every transmission for retrier assertions.
type sendLog struct {
	mu    sync.Mutex
	sends []outRec
}

func (s *sendLog) Send(to string, m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends = append(s.sends, outRec{to: to, m: m})
	return nil
}
func (s *sendLog) Inbox(string) (*Mailbox, error) { return nil, ErrUnknownAgent }
func (s *sendLog) Close() error                   { return nil }

func (s *sendLog) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sends)
}

func TestRetrierResendAndRoundPruning(t *testing.T) {
	log := &sendLog{}
	ret := NewRetrier(log)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ret.Send("dc-0", Message{From: "fe-0", Kind: KindRouting, Iter: 1}))
	must(ret.Send("dc-1", Message{From: "fe-0", Kind: KindRouting, Iter: 1}))
	must(ret.Send("coord", Message{From: "fe-0", Kind: KindReport, Iter: 1}))
	if log.count() != 3 {
		t.Fatalf("recorded sends transmitted %d times, want 3", log.count())
	}

	// Resend retransmits exactly the matching record.
	must(ret.Resend("dc-1", KindRouting, 1))
	if log.count() != 4 {
		t.Fatalf("resend transmitted %d total, want 4", log.count())
	}
	last := log.sends[len(log.sends)-1]
	if last.to != "dc-1" || last.m.Kind != KindRouting || last.m.Iter != 1 {
		t.Fatalf("resend retransmitted %+v", last)
	}

	// Two rounds are retained: after NewRound(2), iteration-1 records are
	// still solicitable; after NewRound(3) they are pruned and Resend is a
	// silent no-op.
	ret.NewRound(2)
	must(ret.Resend("dc-0", KindRouting, 1))
	if log.count() != 5 {
		t.Fatalf("previous-round resend transmitted %d total, want 5", log.count())
	}
	ret.NewRound(3)
	must(ret.Resend("dc-0", KindRouting, 1))
	if log.count() != 5 {
		t.Fatalf("pruned resend still transmitted: %d total, want 5", log.count())
	}
}
