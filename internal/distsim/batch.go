package distsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frameBuf is a pooled, encoded wire record (length prefix included).
// Ownership transfers with the buffer: whoever holds it last returns it
// to the pool.
type frameBuf struct {
	b []byte
}

// maxPooledFrame keeps the pool from retaining rare oversized buffers.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf {
	fb := framePool.Get().(*frameBuf)
	fb.b = fb.b[:0]
	return fb
}

func putFrame(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// connWriter owns the write half of one TCP connection. Senders enqueue
// encoded records; a single writer goroutine drains every record waiting
// in the queue into one bufio.Writer and flushes when the queue goes
// momentarily idle, so a burst of N sends costs one syscall instead of N.
// Steady-state enqueues allocate nothing: records live in pooled
// frameBufs handed over through a buffered channel.
type connWriter struct {
	conn  net.Conn
	q     chan *frameBuf
	done  chan struct{}
	drain chan struct{}
	// closing is set by fail and shutdown before they close done and
	// drain, so enqueue refuses new records without a select on channels
	// every sender and the writer share.
	closing   atomic.Bool
	once      sync.Once
	drainOnce sync.Once
	counters  *transportCounters
	// wrap, set on hub↔hub links, wraps every multi-record write batch in
	// a single batch record (see appendBatchFrame), so the peer receives
	// one record per flush instead of one per message. Single records pass
	// through unwrapped; receivers accept both forms.
	wrap bool
	// onFail, when set, receives every record that was enqueued but never
	// written after a write error (the hub uses it to requeue messages
	// for a reconnecting node). Ownership of the frameBufs transfers to
	// the callback.
	onFail func(unsent []*frameBuf)
	wg     sync.WaitGroup

	errMu sync.Mutex
	err   error
}

func newConnWriter(conn net.Conn, queue int, counters *transportCounters, onFail func([]*frameBuf)) *connWriter {
	return newConnWriterWrap(conn, queue, counters, false, onFail)
}

// newConnWriterWrap is newConnWriter with explicit batch wrapping (hub
// peer links set wrap; node links never do).
func newConnWriterWrap(conn net.Conn, queue int, counters *transportCounters, wrap bool, onFail func([]*frameBuf)) *connWriter {
	if queue <= 0 {
		queue = 256
	}
	cw := &connWriter{
		conn:     conn,
		q:        make(chan *frameBuf, queue),
		done:     make(chan struct{}),
		drain:    make(chan struct{}),
		counters: counters,
		wrap:     wrap,
		onFail:   onFail,
	}
	cw.wg.Add(1)
	go cw.loop()
	return cw
}

// enqueue hands a record to the writer. On success the writer owns fb; on
// error the caller keeps ownership (so the hub can requeue the bytes).
// Only a full queue makes it select against the writer's shutdown.
//
//ufc:hotpath
func (cw *connWriter) enqueue(fb *frameBuf) error {
	if cw.closing.Load() {
		return cw.closeErr()
	}
	select {
	case cw.q <- fb:
		return nil
	default:
	}
	select {
	case cw.q <- fb:
		return nil
	case <-cw.done:
		return cw.closeErr()
	}
}

// fail shuts the writer down once: it records the cause, unblocks
// senders, and closes the connection (which also unblocks any in-flight
// write and the peer read loop). A nil or ErrClosed cause reads as a
// deliberate close; anything else is wrapped so callers still match
// errors.Is(err, ErrClosed).
func (cw *connWriter) fail(cause error) {
	cw.once.Do(func() {
		cw.errMu.Lock()
		if cause == nil || errors.Is(cause, ErrClosed) {
			cw.err = ErrClosed
		} else {
			cw.err = fmt.Errorf("%w: %v", ErrClosed, cause)
		}
		cw.errMu.Unlock()
		cw.closing.Store(true)
		close(cw.done)
		_ = cw.conn.Close() //ufc:discard the writer is failing with its own cause already
	})
}

func (cw *connWriter) closeErr() error {
	cw.errMu.Lock()
	defer cw.errMu.Unlock()
	if cw.err == nil {
		return ErrClosed
	}
	return cw.err
}

// close tears the writer down and waits for the goroutine to exit.
func (cw *connWriter) close(cause error) {
	cw.fail(cause)
	cw.wg.Wait()
}

// shutdown is the graceful counterpart of close: it stops accepting new
// records, flushes everything already queued to the socket (bounded by a
// write deadline so a dead peer cannot wedge Close), and only then tears
// the connection down. Sends are asynchronous, so without this a Close
// right after the final Send of a protocol run would drop the tail of
// the queue — exactly the records a remote coordinator is waiting for.
func (cw *connWriter) shutdown() {
	//ufc:discard a failed deadline set degrades to a blocking flush, which fail() still bounds
	_ = cw.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	cw.closing.Store(true)
	cw.drainOnce.Do(func() { close(cw.drain) })
	cw.wg.Wait()
	cw.fail(ErrClosed)
}

// maxCoalescedBytes bounds one write batch, keeping memory and flush
// latency in check under sustained bursts.
const maxCoalescedBytes = 64 << 10

func (cw *connWriter) loop() {
	defer cw.wg.Done()
	buf := make([]byte, 0, maxCoalescedBytes)
	var wrapBuf []byte
	if cw.wrap {
		// Room for the coalesced records plus the batch head and prefix.
		wrapBuf = make([]byte, 0, maxCoalescedBytes+16)
	}
	batch := make([]*frameBuf, 0, 64)
	for {
		select {
		case fb := <-cw.q:
			if !cw.writeBatch(&buf, &wrapBuf, &batch, fb) {
				return
			}
		case <-cw.drain:
			// Graceful shutdown: flush whatever is still queued, then exit.
			for {
				select {
				case fb := <-cw.q:
					if !cw.writeBatch(&buf, &wrapBuf, &batch, fb) {
						return
					}
				default:
					return
				}
			}
		case <-cw.done:
			cw.drainTo(cw.onFail)
			return
		}
	}
}

// writeBatch coalesces fb plus everything else waiting in the queue into
// one socket write. It reports false after a write error (the writer is
// dead and the loop must exit). With wrap set, a multi-record batch goes
// out as one batch record — the peer pays one record dispatch per flush.
//
//ufc:hotpath
func (cw *connWriter) writeBatch(buf, wrapBuf *[]byte, batch *[]*frameBuf, fb *frameBuf) bool {
	b, recs := (*buf)[:0], (*batch)[:0]
	b = append(b, fb.b...)
	recs = append(recs, fb)
	for len(b) < maxCoalescedBytes {
		select {
		case fb = <-cw.q:
			b = append(b, fb.b...)
			recs = append(recs, fb)
			continue
		default:
		}
		break
	}
	*buf, *batch = b, recs
	if cw.wrap && len(recs) > 1 {
		w := appendBatchFrame((*wrapBuf)[:0], b)
		*wrapBuf = w
		// Queue momentarily idle (or the batch is full): one syscall, one
		// wire record for the whole batch.
		n, err := cw.conn.Write(w)
		if err != nil {
			// A partially written batch record breaks the stream mid-frame;
			// nothing after the cut is recoverable, so records are handed
			// back only when none of the batch reached the socket.
			//ufc:alloc cold branch: the connection is already broken, one allocation on teardown is irrelevant
			cw.fail(err)
			if n > 0 {
				for _, fb := range recs {
					putFrame(fb)
				}
				recs = recs[:0]
			}
			cw.failUnsent(recs)
			return false
		}
		cw.counters.noteSend(len(w))
		cw.counters.noteFlush(len(recs))
		for _, fb := range recs {
			putFrame(fb)
		}
		return true
	}
	// Queue momentarily idle (or the batch is full): one syscall for the
	// whole batch.
	n, err := cw.conn.Write(b)
	if err != nil {
		cw.failBatch(recs, n, err)
		return false
	}
	for _, fb := range recs {
		cw.counters.noteSend(len(fb.b))
		putFrame(fb)
	}
	cw.counters.noteFlush(len(recs))
	return true
}

// failBatch records the write error and hands every record that never
// reached the socket — the unwritten tail of the failed batch plus
// everything still queued — to onFail (or back to the pool). A record the
// write cut in half is unrecoverable (the stream is broken mid-frame)
// and is dropped.
func (cw *connWriter) failBatch(batch []*frameBuf, written int, err error) {
	cw.fail(err)
	var unsent []*frameBuf
	off := 0
	for _, fb := range batch {
		if off >= written {
			unsent = append(unsent, fb)
		} else {
			putFrame(fb)
		}
		off += len(fb.b)
	}
	cw.failUnsent(unsent)
}

// failUnsent hands unsent plus everything still queued to onFail (or back
// to the pool) after the writer has already failed.
func (cw *connWriter) failUnsent(unsent []*frameBuf) {
	for {
		select {
		case fb := <-cw.q:
			unsent = append(unsent, fb)
		default:
			if cw.onFail != nil && len(unsent) > 0 {
				cw.onFail(unsent)
			} else {
				for _, fb := range unsent {
					putFrame(fb)
				}
			}
			return
		}
	}
}

func (cw *connWriter) drainTo(sink func([]*frameBuf)) {
	var unsent []*frameBuf
	for {
		select {
		case fb := <-cw.q:
			unsent = append(unsent, fb)
		default:
			if len(unsent) == 0 {
				return
			}
			if sink != nil {
				sink(unsent)
			} else {
				for _, fb := range unsent {
					putFrame(fb)
				}
			}
			return
		}
	}
}
