package distsim

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// A FaultPlan describes a deterministic, seeded schedule of network and
// node faults for chaos testing the distributed protocol. It is applied
// by wrapping any Transport in a FaultTransport. Every fault decision is
// a pure hash of (Seed, link, kind, iteration, attempt), so two runs with
// the same plan and the same logical message sequence make identical
// decisions regardless of goroutine scheduling — chaos runs replay.
//
// Link faults are probabilistic per transmission attempt (a retransmitted
// message is a new attempt and is hashed independently, so a lossy link
// passes a retry with fresh odds). Partitions and crashes are keyed on
// the protocol iteration carried by each message, which makes their onset
// exact and reproducible: "datacenter 1 crashes at iteration 40" means
// every message to or from dc-1 with Iter ≥ 40 is dropped, no matter when
// it is sent.
type FaultPlan struct {
	// Seed drives every probabilistic decision in the plan.
	Seed int64 `json:"seed"`
	// Links are per-link fault rules; the first rule matching a
	// (from, to) pair applies.
	Links []LinkFault `json:"links,omitempty"`
	// Partitions isolate agent groups for iteration windows.
	Partitions []Partition `json:"partitions,omitempty"`
	// Crashes permanently silence agents from an iteration onward.
	Crashes []Crash `json:"crashes,omitempty"`
}

// LinkFault injects faults on messages from From to To. From and To match
// an exact agent id, a class wildcard ("fe-*", "dc-*"), or any agent
// ("*" or empty).
type LinkFault struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// DropProb is the probability that one transmission attempt is
	// dropped.
	DropProb float64 `json:"drop,omitempty"`
	// DupProb is the probability that an attempt is delivered twice.
	DupProb float64 `json:"dup,omitempty"`
	// DelayProb is the probability that an attempt is delayed by a
	// uniform extra latency in (0, MaxExtraDelayMS]; 0 with a nonzero
	// MaxExtraDelayMS delays every attempt.
	DelayProb float64 `json:"delayProb,omitempty"`
	// MaxExtraDelayMS bounds the injected extra delay in milliseconds.
	MaxExtraDelayMS float64 `json:"maxExtraDelayMs,omitempty"`
}

// Partition drops every message crossing the boundary between Agents and
// the rest of the cloud while the message's iteration lies in
// [FromIter, ToIter); ToIter 0 means the partition never heals.
type Partition struct {
	Agents   []string `json:"agents"`
	FromIter int      `json:"fromIter"`
	ToIter   int      `json:"toIter,omitempty"`
}

// Crash silences Agent from iteration AtIter onward: every message to or
// from it is dropped and its mailbox is closed, so the hosting worker
// aborts — modelling a node that dies mid-solve.
type Crash struct {
	Agent  string `json:"agent"`
	AtIter int    `json:"atIter"`
}

// Validate checks probabilities and iteration windows.
func (p *FaultPlan) Validate() error {
	for k, l := range p.Links {
		for _, pr := range []float64{l.DropProb, l.DupProb, l.DelayProb} {
			if pr < 0 || pr > 1 {
				return fmt.Errorf("distsim: fault plan link %d: probability %g outside [0,1]", k, pr)
			}
		}
		if l.MaxExtraDelayMS < 0 {
			return fmt.Errorf("distsim: fault plan link %d: negative delay", k)
		}
	}
	for k, pt := range p.Partitions {
		if len(pt.Agents) == 0 {
			return fmt.Errorf("distsim: fault plan partition %d has no agents", k)
		}
		if pt.ToIter != 0 && pt.ToIter <= pt.FromIter {
			return fmt.Errorf("distsim: fault plan partition %d heals before it starts", k)
		}
	}
	for k, c := range p.Crashes {
		if c.Agent == "" {
			return fmt.Errorf("distsim: fault plan crash %d names no agent", k)
		}
		if c.AtIter < 0 {
			return fmt.Errorf("distsim: fault plan crash %d at negative iteration", k)
		}
	}
	return nil
}

// ParseFaultPlan decodes and validates a JSON fault plan (the -fault-plan
// file format of ufcsim and ufcnode).
func ParseFaultPlan(data []byte) (*FaultPlan, error) {
	var p FaultPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("distsim: fault plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// zero reports whether the plan injects no faults at all.
func (p *FaultPlan) zero() bool {
	return p == nil || (len(p.Links) == 0 && len(p.Partitions) == 0 && len(p.Crashes) == 0)
}

// matchAgent reports whether pattern matches id ("", "*", "fe-*", "dc-*",
// or an exact id).
func matchAgent(pattern, id string) bool {
	switch pattern {
	case "", "*":
		return true
	case "fe-*":
		var k int
		return parseID(id, "fe-", &k)
	case "dc-*":
		var k int
		return parseID(id, "dc-", &k)
	default:
		return pattern == id
	}
}

// faultHash is an FNV-1a style hash over one fault decision's identity.
// salt separates the independent decisions (drop/dup/delay-gate/delay-
// magnitude) taken for a single attempt.
func faultHash(seed int64, salt byte, from, to string, kind Kind, iter, attempt int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for k := 0; k < 8; k++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	h ^= uint64(salt)
	h *= prime64
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= prime64
	}
	h ^= 0xff // separator
	h *= prime64
	for i := 0; i < len(to); i++ {
		h ^= uint64(to[i])
		h *= prime64
	}
	mix(uint64(kind))
	mix(uint64(iter))
	mix(uint64(attempt))
	return h
}

// hash01 maps a hash to a uniform float64 in [0, 1).
func hash01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// FaultStats is a snapshot of a FaultTransport's injection counters.
type FaultStats struct {
	Dropped          uint64 // attempts dropped by link rules
	Duplicated       uint64 // attempts delivered twice
	Delayed          uint64 // attempts given extra latency
	PartitionDropped uint64 // attempts dropped by an active partition
	CrashDropped     uint64 // attempts dropped because an endpoint crashed
}

// faultCounters backs FaultStats with registry-attachable instruments.
type faultCounters struct {
	dropped   telemetry.Counter
	dup       telemetry.Counter
	delayed   telemetry.Counter
	partition telemetry.Counter
	crash     telemetry.Counter
}

func (c *faultCounters) snapshot() FaultStats {
	return FaultStats{
		Dropped:          c.dropped.Load(),
		Duplicated:       c.dup.Load(),
		Delayed:          c.delayed.Load(),
		PartitionDropped: c.partition.Load(),
		CrashDropped:     c.crash.Load(),
	}
}

// attemptKey identifies one logical message for attempt counting.
type attemptKey struct {
	from, to string
	kind     Kind
	iter     int
}

// crashGate is the activation latch of one scheduled crash.
type crashGate struct {
	atIter int
	once   sync.Once
	ch     chan struct{} // closed on activation
}

// FaultTransport applies a FaultPlan to an inner Transport. A zero plan
// is a pure passthrough: Send forwards directly to the inner transport
// and stays allocation-free, so a no-fault chaos run is bit- and
// cost-identical to running without the wrapper.
type FaultTransport struct {
	inner    Transport
	plan     FaultPlan
	pass     bool // plan injects nothing; skip all bookkeeping
	parts    []partitionSet
	gates    map[string]*crashGate
	counters faultCounters
	tracer   *tracing.Recorder
	flight   *tracing.Flight

	mu       sync.Mutex
	attempts map[attemptKey]int
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

type partitionSet struct {
	in       map[string]bool
	from, to int // [from, to); to 0 = forever
}

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with the plan. The wrapper owns inner:
// closing the wrapper closes the inner transport too.
func NewFaultTransport(inner Transport, plan *FaultPlan) (*FaultTransport, error) {
	f := &FaultTransport{
		inner:    inner,
		attempts: make(map[attemptKey]int),
		gates:    make(map[string]*crashGate),
		done:     make(chan struct{}),
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		f.plan = *plan
	}
	f.pass = f.plan.zero()
	for _, pt := range f.plan.Partitions {
		in := make(map[string]bool, len(pt.Agents))
		for _, id := range pt.Agents {
			in[id] = true
		}
		f.parts = append(f.parts, partitionSet{in: in, from: pt.FromIter, to: pt.ToIter})
	}
	for _, c := range f.plan.Crashes {
		if _, dup := f.gates[c.Agent]; !dup {
			f.gates[c.Agent] = &crashGate{atIter: c.AtIter, ch: make(chan struct{})}
		}
	}
	return f, nil
}

// AttachFlight arms the fault plane's observability hooks: each crash
// gate's activation records a breadcrumb event and triggers one bounded
// flight-recorder dump, capturing the spans leading up to the fault.
// Call before the run starts; both arguments may be nil.
func (f *FaultTransport) AttachFlight(tr *tracing.Recorder, fl *tracing.Flight) {
	f.tracer = tr
	f.flight = fl
}

// Stats returns a snapshot of the injection counters.
func (f *FaultTransport) Stats() FaultStats { return f.counters.snapshot() }

// RegisterMetrics attaches the injection counters to reg.
func (f *FaultTransport) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterCounter("ufc_fault_dropped_total", "attempts dropped by link fault rules", &f.counters.dropped, labels...)
	reg.RegisterCounter("ufc_fault_duplicated_total", "attempts delivered twice", &f.counters.dup, labels...)
	reg.RegisterCounter("ufc_fault_delayed_total", "attempts given injected extra latency", &f.counters.delayed, labels...)
	reg.RegisterCounter("ufc_fault_partition_dropped_total", "attempts dropped by an active partition", &f.counters.partition, labels...)
	reg.RegisterCounter("ufc_fault_crash_dropped_total", "attempts dropped because an endpoint crashed", &f.counters.crash, labels...)
}

// Crashed reports whether the plan has activated a crash for id.
func (f *FaultTransport) Crashed(id string) bool {
	g, ok := f.gates[id]
	if !ok {
		return false
	}
	select {
	case <-g.ch:
		return true
	default:
		return false
	}
}

// Send implements Transport, applying the plan to the attempt. The
// zero-plan passthrough adds no allocation to the inner Send path; fault
// paths may allocate (they are, by definition, the slow path).
func (f *FaultTransport) Send(to string, m Message) error {
	if f.pass {
		return f.inner.Send(to, m)
	}
	if g := f.crashCheck(m.From, m.Iter); g != nil {
		f.counters.crash.Inc()
		return nil
	}
	if g := f.crashCheck(to, m.Iter); g != nil {
		f.counters.crash.Inc()
		return nil
	}
	for _, pt := range f.parts {
		if m.Iter >= pt.from && (pt.to == 0 || m.Iter < pt.to) && pt.in[m.From] != pt.in[to] {
			f.counters.partition.Inc()
			return nil
		}
	}
	rule := f.matchLink(m.From, to)
	if rule == nil {
		return f.inner.Send(to, m)
	}
	att := f.nextAttempt(m.From, to, m.Kind, m.Iter)
	if att < 0 {
		return ErrClosed
	}
	if rule.DropProb > 0 && hash01(faultHash(f.plan.Seed, 'd', m.From, to, m.Kind, m.Iter, att)) < rule.DropProb {
		f.counters.dropped.Inc()
		return nil
	}
	var delay time.Duration
	if rule.MaxExtraDelayMS > 0 {
		gate := rule.DelayProb == 0 ||
			hash01(faultHash(f.plan.Seed, 'g', m.From, to, m.Kind, m.Iter, att)) < rule.DelayProb
		if gate {
			frac := hash01(faultHash(f.plan.Seed, 't', m.From, to, m.Kind, m.Iter, att))
			delay = time.Duration(frac * rule.MaxExtraDelayMS * float64(time.Millisecond))
		}
	}
	dup := rule.DupProb > 0 && hash01(faultHash(f.plan.Seed, 'u', m.From, to, m.Kind, m.Iter, att)) < rule.DupProb
	if dup {
		f.counters.dup.Inc()
	}
	copies := 1
	if dup {
		copies = 2
	}
	if delay == 0 {
		var err error
		for k := 0; k < copies; k++ {
			err = f.inner.Send(to, m)
		}
		return err
	}
	f.counters.delayed.Inc()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.wg.Add(1)
	f.mu.Unlock()
	go func() {
		defer f.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
			for k := 0; k < copies; k++ {
				_ = f.inner.Send(to, m) //ufc:discard fault-delayed redelivery races teardown by design; the protocol's retry layer owns recovery
			}
		case <-f.done:
		}
	}()
	return nil
}

// crashCheck returns the gate of id if the message iteration activates or
// has activated its crash.
func (f *FaultTransport) crashCheck(id string, iter int) *crashGate {
	g, ok := f.gates[id]
	if !ok || iter < g.atIter {
		return nil
	}
	g.once.Do(func() {
		close(g.ch)
		// The victim takes what is already queued, then sees its mailbox
		// closed; later deliveries to it are discarded.
		if mb, err := f.inner.Inbox(id); err == nil {
			mb.close()
		}
		// Crash activation is a fault-plan trigger: leave a breadcrumb and
		// capture the flight ring before degraded operation overwrites it.
		if idx, ok := agentIndex(id); ok {
			f.tracer.Event(tracing.Context{}, "fault.crash",
				tracing.I64("agent", int64(idx)), tracing.I64("iter", int64(iter)))
		} else {
			f.tracer.Event(tracing.Context{}, "fault.crash",
				tracing.I64("iter", int64(iter)), tracing.Attr{})
		}
		f.flight.Dump("fault-crash")
	})
	return g
}

func (f *FaultTransport) matchLink(from, to string) *LinkFault {
	for k := range f.plan.Links {
		l := &f.plan.Links[k]
		if matchAgent(l.From, from) && matchAgent(l.To, to) {
			return l
		}
	}
	return nil
}

// nextAttempt returns the 0-based attempt number of this transmission of
// the logical message, or -1 after Close.
func (f *FaultTransport) nextAttempt(from, to string, kind Kind, iter int) int {
	key := attemptKey{from: from, to: to, kind: kind, iter: iter}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return -1
	}
	att := f.attempts[key]
	f.attempts[key] = att + 1
	return att
}

// Inbox implements Transport: the inner transport's mailbox, which a
// crash closes when it activates (see crashCheck), so the hosting worker
// observes the death.
func (f *FaultTransport) Inbox(id string) (*Mailbox, error) {
	return f.inner.Inbox(id)
}

// Close implements Transport; it tears down the wrapper's goroutines and
// closes the inner transport.
func (f *FaultTransport) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	close(f.done)
	err := f.inner.Close()
	f.wg.Wait()
	return err
}
