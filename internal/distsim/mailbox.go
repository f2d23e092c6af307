package distsim

import (
	"context"
	"sync"
)

// minMailboxSlots is a mailbox's first storage size.
const minMailboxSlots = 8

// Mailbox is an agent's inbox: a FIFO of messages bounded by the
// transport's Buffer. A producer that finds it full waits, as on a full
// channel, but its storage starts at a few slots and doubles only as
// messages queue, up to the bound. A node hosting hundreds of agents
// therefore holds memory in proportion to the messages actually waiting,
// not to agents × Buffer, and a caller can pick a large bound for safety
// without paying for it up front.
//
// A mailbox has one receiver at a time, the agent that owns it. After
// close the receiver still gets every queued message, then sees the
// mailbox closed. Once storage has grown to the traffic, put and receive
// allocate nothing.
type Mailbox struct {
	mu      sync.Mutex
	buf     []Message // ring storage; len(buf) is the current capacity
	head, n int       // index of the oldest message, and how many are queued
	bound   int
	closed  bool
	drop    bool // discard queued and arriving messages (an exited agent's)
	putWait int  // producers waiting for a free slot

	ready chan struct{} // one-slot signal: a message arrived in an empty mailbox, or it closed
	space chan struct{} // one-slot signal to waiting producers: a slot freed, or the mailbox closed or started dropping
}

func newMailbox(bound int) *Mailbox {
	return &Mailbox{bound: bound, ready: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// signal leaves a token in a one-slot channel without waiting.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// wakeProducer passes a free slot (or the end of waiting) on to a waiting
// producer; each producer that leaves passes it on again, so every waiter
// that can proceed does. mb.mu must be held.
func (mb *Mailbox) wakeProducer() {
	if mb.putWait > 0 && (mb.n < mb.bound || mb.closed || mb.drop) {
		signal(mb.space)
	}
}

// put queues m, waiting while the mailbox is full. It reports false only
// when stop closed first. A closed or dropping mailbox discards m: its
// agent is gone, and the message is lost as it would be to any dead peer.
func (mb *Mailbox) put(m Message, stop <-chan struct{}) bool {
	mb.mu.Lock()
	for mb.n == mb.bound && !mb.closed && !mb.drop {
		mb.putWait++
		mb.mu.Unlock()
		select {
		case <-mb.space:
		case <-stop:
			mb.mu.Lock()
			mb.putWait--
			mb.mu.Unlock()
			return false
		}
		mb.mu.Lock()
		mb.putWait--
	}
	if !mb.closed && !mb.drop {
		if mb.n == len(mb.buf) {
			mb.grow()
		}
		tail := mb.head + mb.n
		if tail >= len(mb.buf) {
			tail -= len(mb.buf)
		}
		mb.buf[tail] = m
		mb.n++
		if mb.n == 1 {
			signal(mb.ready)
		}
	}
	mb.wakeProducer()
	mb.mu.Unlock()
	return true
}

// grow doubles the full ring's storage, capped at the bound, keeping the
// queued messages in order. mb.mu must be held.
func (mb *Mailbox) grow() {
	c := min(max(2*len(mb.buf), minMailboxSlots), mb.bound)
	//ufc:alloc storage grows with the queue; once it fits the traffic, puts reuse it
	buf := make([]Message, c)
	k := copy(buf, mb.buf[mb.head:])
	copy(buf[k:], mb.buf[:mb.head])
	mb.buf, mb.head = buf, 0
}

// pop takes the oldest queued message, clearing its slot so the payload
// can be collected. ok is false when none is queued; closed then reports
// whether the mailbox has been closed.
func (mb *Mailbox) pop() (m Message, ok, closed bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.n == 0 {
		return Message{}, false, mb.closed
	}
	m = mb.buf[mb.head]
	mb.buf[mb.head] = Message{}
	if mb.head++; mb.head == len(mb.buf) {
		mb.head = 0
	}
	mb.n--
	mb.wakeProducer()
	return m, true, false
}

// Recv returns the oldest queued message, waiting for one to arrive. It
// returns ErrClosed once the mailbox is closed and empty, and ctx's error
// when ctx is done first.
func (mb *Mailbox) Recv(ctx context.Context) (Message, error) {
	for {
		m, ok, closed := mb.pop()
		if ok {
			return m, nil
		}
		if closed {
			return Message{}, ErrClosed
		}
		select {
		case <-mb.ready:
		case <-ctx.Done():
			return Message{}, ctx.Err()
		}
	}
}

// close ends the mailbox: producers stop waiting and their messages are
// discarded, and the receiver sees it closed once it has taken what is
// queued. Idempotent.
func (mb *Mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.closed = true
	signal(mb.ready)
	mb.wakeProducer()
}

// setDrop switches drop mode. Turning it on discards the queued messages
// and every later one until it is turned off, so an agent that stopped
// reading can never make its senders wait.
func (mb *Mailbox) setDrop(on bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.drop = on
	if on {
		clear(mb.buf)
		mb.head, mb.n = 0, 0
		mb.wakeProducer()
	}
}
