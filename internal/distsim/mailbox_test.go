package distsim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// recvWithin receives one message from box, giving up after d: the error
// is ErrClosed once box is closed and empty, and context.DeadlineExceeded
// on timeout.
func recvWithin(box *Mailbox, d time.Duration) (Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return box.Recv(ctx)
}

// mustRecv receives the next message and checks its Iter.
func mustRecv(t *testing.T, box *Mailbox, iter int) {
	t.Helper()
	m, err := recvWithin(box, 5*time.Second)
	if err != nil {
		t.Fatalf("receiving iter %d: %v", iter, err)
	}
	if m.Iter != iter {
		t.Fatalf("received iter %d, want %d", m.Iter, iter)
	}
}

// queued takes what box holds without waiting.
func queued(box *Mailbox) []Message {
	var out []Message
	for {
		m, ok, _ := box.pop()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

// waitReturn waits up to d for done and reports whether it delivered.
func waitReturn(done <-chan bool, d time.Duration) (ok, returned bool) {
	select {
	case ok = <-done:
		return ok, true
	case <-time.After(d):
		return false, false
	}
}

func TestMailboxFIFOAcrossGrowth(t *testing.T) {
	mb := newMailbox(1000)
	sent, next := 0, 0
	// Receives between the bursts move the ring's head, so every growth
	// copies a wrapped ring.
	for burst := 1; burst <= 6; burst++ {
		for k := 0; k < 10*burst; k++ {
			mb.put(Message{Iter: sent}, nil)
			sent++
		}
		for k := 0; k < 5*burst; k++ {
			mustRecv(t, mb, next)
			next++
		}
	}
	if len(mb.buf) <= minMailboxSlots {
		t.Fatalf("storage never grew: %d slots for %d queued", len(mb.buf), sent-next)
	}
	for next < sent {
		mustRecv(t, mb, next)
		next++
	}
}

func TestMailboxFullPutWaitsForReceive(t *testing.T) {
	mb := newMailbox(2)
	mb.put(Message{Iter: 1}, nil)
	mb.put(Message{Iter: 2}, nil)
	// Three producers wait on the full mailbox; each receive lets one in.
	done := make(chan bool, 3)
	for k := 3; k <= 5; k++ {
		go func() { done <- mb.put(Message{Iter: k}, nil) }()
	}
	if _, returned := waitReturn(done, 50*time.Millisecond); returned {
		t.Fatal("put into a full mailbox returned without a receive")
	}
	got := map[int]bool{}
	for k := 1; k <= 5; k++ {
		m, err := recvWithin(mb, 5*time.Second)
		if err != nil {
			t.Fatalf("receive %d: %v", k, err)
		}
		if k <= 2 && m.Iter != k {
			t.Fatalf("receive %d got iter %d: the queued messages come first, in order", k, m.Iter)
		}
		got[m.Iter] = true
		if k <= 3 {
			if ok, returned := waitReturn(done, 5*time.Second); !returned || !ok {
				t.Fatalf("a waiting put did not resume after receive %d", k)
			}
		}
	}
	if len(got) != 5 {
		t.Fatalf("received iters %v, want 1..5", got)
	}
}

func TestMailboxPutReturnsOnStop(t *testing.T) {
	mb := newMailbox(1)
	mb.put(Message{Iter: 1}, nil)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- mb.put(Message{Iter: 2}, stop) }()
	close(stop)
	ok, returned := waitReturn(done, 5*time.Second)
	if !returned {
		t.Fatal("put on a full mailbox did not return when its stop channel closed")
	}
	if ok {
		t.Fatal("a put stopped before it found room reported delivery")
	}
	if q := queued(mb); len(q) != 1 || q[0].Iter != 1 {
		t.Fatalf("mailbox holds %+v, want only the first message", q)
	}
}

func TestMailboxCloseWakesReceiverAfterDrain(t *testing.T) {
	// A receiver already waiting on an empty mailbox wakes on close.
	mb := newMailbox(4)
	errc := make(chan error, 1)
	go func() {
		_, err := recvWithin(mb, 5*time.Second)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	mb.close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiting receiver got %v on close, want ErrClosed", err)
	}

	// Messages queued before close still arrive, in order, then the close
	// shows; a producer waiting on the full mailbox returns, its message
	// discarded.
	mb = newMailbox(2)
	mb.put(Message{Iter: 1}, nil)
	mb.put(Message{Iter: 2}, nil)
	done := make(chan bool, 1)
	go func() { done <- mb.put(Message{Iter: 3}, nil) }()
	time.Sleep(20 * time.Millisecond)
	mb.close()
	if _, returned := waitReturn(done, 5*time.Second); !returned {
		t.Fatal("close left a producer waiting on a full mailbox")
	}
	mustRecv(t, mb, 1)
	mustRecv(t, mb, 2)
	if _, err := recvWithin(mb, 5*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed mailbox returned %v, want ErrClosed", err)
	}
	mb.put(Message{Iter: 4}, nil)
	if _, err := recvWithin(mb, 5*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close was queued: %v", err)
	}
}

func TestMailboxDropModeDiscards(t *testing.T) {
	mb := newMailbox(2)
	mb.put(Message{Iter: 1}, nil)
	mb.put(Message{Iter: 2}, nil)
	done := make(chan bool, 1)
	go func() { done <- mb.put(Message{Iter: 3}, nil) }()
	time.Sleep(20 * time.Millisecond)
	mb.setDrop(true)
	if _, returned := waitReturn(done, 5*time.Second); !returned {
		t.Fatal("drop mode left a producer waiting")
	}
	for k := 4; k < 100; k++ {
		mb.put(Message{Iter: k}, nil) // never waits, though the bound is 2
	}
	if q := queued(mb); len(q) != 0 {
		t.Fatalf("a dropping mailbox holds %d messages", len(q))
	}
	mb.setDrop(false)
	mb.put(Message{Iter: 100}, nil)
	mustRecv(t, mb, 100)
}

func TestMailboxStorageTracksPeakOccupancy(t *testing.T) {
	for _, peak := range []int{1, 7, 8, 9, 17, 100, 1000, 4096} {
		mb := newMailbox(4096)
		for k := 0; k < peak; k++ {
			mb.put(Message{Iter: k}, nil)
		}
		queued(mb)
		// Traffic below the peak never grows the storage again.
		for round := 0; round < 50; round++ {
			for k := 0; k < max(1, peak/2); k++ {
				mb.put(Message{Iter: k}, nil)
			}
			queued(mb)
		}
		if got, limit := len(mb.buf), max(minMailboxSlots, 2*peak); got > limit || got < peak {
			t.Fatalf("peak occupancy %d: %d slots, want within [%d, %d]", peak, got, peak, limit)
		}
	}
	// Storage never exceeds the bound.
	mb := newMailbox(100)
	for k := 0; k < 100; k++ {
		mb.put(Message{Iter: k}, nil)
	}
	if len(mb.buf) != 100 {
		t.Fatalf("full mailbox of bound 100 has %d slots", len(mb.buf))
	}
}

func TestMailboxPopClearsSlot(t *testing.T) {
	mb := newMailbox(8)
	mb.put(Message{Iter: 1, From: "fe-0", Payload: []float64{1}}, nil)
	mustRecv(t, mb, 1)
	for k, m := range mb.buf {
		if m.Payload != nil || m.From != "" {
			t.Fatalf("slot %d still references a received message: %+v", k, m)
		}
	}
}

// TestMailboxZeroAlloc pins the steady state: once storage has grown to
// the traffic, put and receive allocate nothing.
func TestMailboxZeroAlloc(t *testing.T) {
	mb := newMailbox(64)
	m := Message{Kind: KindRouting, Iter: 1, From: "fe-0", Payload: []float64{1, 2}}
	ctx := context.Background()
	cycle := func() {
		for k := 0; k < 32; k++ {
			mb.put(m, nil)
		}
		for k := 0; k < 32; k++ {
			if _, err := mb.Recv(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // grow the storage
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state put/receive allocates %.1f times per 32 messages, want 0", allocs)
	}
}

// TestPhaseWaitNoticesDeadlineAndCancelAmidQueuedMessages: a wait takes
// queued messages without selecting, yet it must still notice its
// deadline and its cancellation while messages it does not want keep it
// busy.
func TestPhaseWaitNoticesDeadlineAndCancelAmidQueuedMessages(t *testing.T) {
	const backlog = 1000
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"deadline", false}, {"cancel", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewChanTransport([]string{"x"}, ChanOptions{Buffer: 4096})
			defer func() { _ = tr.Close() }()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mb, err := newResMailbox(ctx, tr, "x")
			if err != nil {
				t.Fatal(err)
			}
			// Fresh aux messages of later rounds: parked, never the one
			// the wait is for.
			for k := 1; k <= backlog; k++ {
				if err := tr.Send("x", Message{From: "dc-0", Kind: KindAux, Iter: k}); err != nil {
					t.Fatal(err)
				}
			}
			pol := Resilience{MessageDeadline: time.Hour}.withDefaults()
			if !tc.cancel {
				pol.MessageDeadline = time.Millisecond
			}
			ph := newPhase(mb, &pol, "x", 1, nil)
			defer ph.stop()
			if tc.cancel {
				cancel()
			} else {
				time.Sleep(20 * time.Millisecond) // the deadline has passed
			}
			_, ok, err := ph.recv(KindControl, 1)
			switch {
			case tc.cancel && !errors.Is(err, context.Canceled):
				t.Fatalf("canceled wait returned ok=%v err=%v, want context.Canceled", ok, err)
			case !tc.cancel && (ok || err != nil):
				t.Fatalf("expired wait returned ok=%v err=%v, want the degrade (false, nil)", ok, err)
			}
			if len(mb.pending) >= backlog {
				t.Fatalf("the wait took all %d queued messages before noticing", backlog)
			}
		})
	}
}
