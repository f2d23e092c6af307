// Package controlplane turns the offline ADM-G solver into a long-lived
// routing control plane: a background pipeline re-solves each slot on a
// rolling horizon (warm-started from the previous converged iterate) and
// publishes the resulting routing table as an immutable snapshot that
// front-end lookups read lock-free. A memoization cache keyed by a
// quantized input digest short-circuits solves for near-identical slots.
//
// The package deliberately sits above internal/core (it drives the solver)
// and below the serving transport (internal/distsim exposes lookups over
// the wire through the Decider interface implemented by Router): it owns
// when to solve, what to publish, and how stale the published table is.
package controlplane

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SolveInfo records how the snapshot's routing table was produced.
type SolveInfo struct {
	Iterations int     // ADM-G iterations the producing solve ran
	Converged  bool    // whether it reached the residual tolerance
	Residual   float64 // final combined relative residual
	Warm       bool    // solve was seeded from the previous slot's iterate
	Cached     bool    // routing came from the memo cache, no solve ran
}

// Snapshot is one immutable published routing table: for every front-end
// a cumulative routing distribution over the datacenters, derived from
// the slot's converged λ. Snapshots are never mutated after Publish —
// readers hold them across an atomic pointer with no locks.
type Snapshot struct {
	Slot int64 // slot sequence number of the producing solve
	M, N int
	Info SolveInfo
	// PublishedUnixNanos is the wall-clock publish instant; the age of the
	// snapshot (now − published) is the serving staleness.
	PublishedUnixNanos int64

	// cum is the M×N slab of cumulative routing fractions: row i holds
	// the running sum of front-end i's routing distribution, ending at 1.
	// A binary search over row i inverts a uniform draw into a datacenter
	// pick with the λ-proportional distribution.
	cum []float64
}

// NewSnapshot builds a snapshot from a finalized allocation. Rows with no
// routed load (a zero-demand front-end) fall back to the uniform
// distribution so every lookup still returns a datacenter. Otherwise a
// datacenter with no routed load — λ_ij = 0, say beyond the sparsity
// cutoff — gets weight exactly 0 and is never decided.
func NewSnapshot(slot int64, alloc *core.Allocation, info SolveInfo) *Snapshot {
	m := len(alloc.Lambda)
	n := len(alloc.MuMW)
	s := &Snapshot{Slot: slot, M: m, N: n, Info: info, cum: make([]float64, m*n)}
	for i := 0; i < m; i++ {
		row := s.cum[i*n : (i+1)*n]
		var total float64
		last := -1 // the last column with positive routed load
		for j, v := range alloc.Lambda[i] {
			if v > 0 {
				total += v
				last = j
			}
			row[j] = total
		}
		if last < 0 {
			for j := range row {
				row[j] = float64(j+1) / float64(n)
			}
			continue
		}
		inv := 1 / total
		for j := range row[:last] {
			row[j] *= inv
		}
		// The bound reaches 1 at the last loaded column, so the rounding
		// residue of the normalization never lands on a column after it.
		for j := last; j < n; j++ {
			row[j] = 1
		}
	}
	return s
}

// Weights copies front-end fe's routing distribution (fractions summing
// to 1) into dst, which must have length N. It exists for tests and
// report tooling; the serving path uses Decide.
func (s *Snapshot) Weights(fe int, dst []float64) {
	row := s.cum[fe*s.N : (fe+1)*s.N]
	prev := 0.0
	for j, c := range row {
		dst[j] = c - prev
		prev = c
	}
}

// decide inverts the uniform draw u ∈ [0, 1) through front-end fe's
// cumulative distribution by branch-light binary search. It allocates
// nothing and reads only immutable data.
//
//ufc:hotpath
func (s *Snapshot) decide(fe int, u float64) int {
	n := s.N
	base := fe * n
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[base+mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// uintToUniform maps a uint64 draw onto [0, 1) with 53-bit resolution —
// the standard float64 mantissa trick, so wire clients can send raw
// entropy instead of a float.
//
//ufc:hotpath
func uintToUniform(u uint64) float64 {
	return float64(u>>11) * (1.0 / (1 << 53))
}

// Router is the serving read side of the control plane: an atomic pointer
// to the current snapshot. Publish swaps the pointer; Decide resolves a
// lookup against whatever snapshot is current with zero locks and zero
// allocations. A Router with no published snapshot answers not-ok.
type Router struct {
	cur atomic.Pointer[Snapshot]
}

// Publish stamps s with the current wall clock and makes it the served
// snapshot. The swap is a single atomic pointer store: in-flight Decide
// calls finish against the snapshot they already loaded.
func (r *Router) Publish(s *Snapshot) {
	s.PublishedUnixNanos = time.Now().UnixNano()
	r.cur.Store(s)
}

// Current returns the served snapshot (nil before the first Publish).
func (r *Router) Current() *Snapshot { return r.cur.Load() }

// AgeNanos returns the age of the served snapshot — the serving staleness
// — or -1 before the first Publish.
func (r *Router) AgeNanos() int64 {
	s := r.cur.Load()
	if s == nil {
		return -1
	}
	return time.Now().UnixNano() - s.PublishedUnixNanos
}

// Decide implements the distsim.Decider lookup: it resolves front-end fe
// against the current snapshot using the caller-supplied entropy u. The
// returned slot and age let clients track solve freshness per decision.
// It is the control plane's hottest function: one atomic load, one
// binary search, no locks, no allocations.
//
//ufc:hotpath
func (r *Router) Decide(fe uint32, u uint64) (dc uint32, slot uint64, ageNanos int64, ok bool) {
	s := r.cur.Load()
	if s == nil || int(fe) >= s.M {
		return 0, 0, 0, false
	}
	j := s.decide(int(fe), uintToUniform(u))
	return uint32(j), uint64(s.Slot), time.Now().UnixNano() - s.PublishedUnixNanos, true
}

// clone returns a snapshot sharing s's immutable routing slab but carrying
// a fresh slot/info header — how cache hits republish an old table under a
// new slot without copying M×N floats.
func (s *Snapshot) clone(slot int64, info SolveInfo) *Snapshot {
	return &Snapshot{Slot: slot, M: s.M, N: s.N, Info: info, cum: s.cum}
}

// MaxRowError returns the largest deviation of any row's final cumulative
// bound from 1 — a structural sanity check used by tests.
func (s *Snapshot) MaxRowError() float64 {
	var worst float64
	for i := 0; i < s.M; i++ {
		if d := math.Abs(s.cum[(i+1)*s.N-1] - 1); d > worst {
			worst = d
		}
	}
	return worst
}
