// Package obs is the observability layer: allocation-conscious metric
// primitives (Counter, Gauge, fixed-bucket latency Histogram) backed by
// atomics, a Registry that produces coherent point-in-time snapshots,
// and a structured event-hook interface (Sink) with a no-op default
// that stays off the hot path.
//
// The design goal is that the instrumentation be as trustworthy as the
// protection scheme it measures: individual counters are lock-free
// atomics (one uncontended atomic add on the hot path, zero heap
// allocations), and all cross-counter reasoning — rates, ladder
// hit/attempt ratios, hit/access ratios — happens on a Snapshot whose
// coherence rules guarantee that derived quantities never go negative:
//
//  1. Counters are read in registration order under the registry lock.
//  2. Declared cross-counter invariants (ClampLE: lower ≤ upper, e.g.
//     retry hits ≤ retries) are enforced by clamping the lower value.
//  3. Counters are clamped monotonically non-decreasing against the
//     previous snapshot, so rates computed between two snapshots are
//     never negative even while writers race the reader.
//  4. A histogram's total count is derived from the very bucket values
//     in the snapshot, so bucket sums always equal the count.
//
// A snapshot is therefore not a linearisable cut of all counters (that
// would require stopping the world), but every *declared* invariant
// holds in every snapshot, which is what downstream consumers (health
// reports, exporters, dashboards) actually rely on.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use. All methods are safe for concurrent use and perform
// no heap allocation.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value. Prefer Registry.Snapshot when the
// value will be compared against other counters.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready
// to use. All methods are safe for concurrent use and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram: observations are
// durations, buckets are cumulative-style upper bounds fixed at
// construction. Observe is lock-free (two atomic adds plus a linear
// scan over a handful of bounds) and allocation-free.
type Histogram struct {
	bounds  []time.Duration // ascending upper bounds; implicit +Inf last
	buckets []atomic.Uint64 // len(bounds)+1
	sum     atomic.Int64    // nanoseconds
}

// DefaultLatencyBounds covers the recovery/scrub latencies this system
// exhibits: sub-microsecond retries up to second-scale full recoveries.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		time.Microsecond,
		10 * time.Microsecond,
		100 * time.Microsecond,
		time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
		time.Second,
	}
}

// NewHistogram builds a histogram with the given ascending upper
// bounds; an empty list selects DefaultLatencyBounds. Registry-managed
// histograms are built via Registry.Histogram instead.
func NewHistogram(bounds ...time.Duration) (*Histogram, error) {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not ascending at %d: %v", i, bounds)
		}
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}, nil
}

// MustHistogram is NewHistogram panicking on error.
func MustHistogram(bounds ...time.Duration) *Histogram {
	h, err := NewHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one duration. Negative durations clamp to zero (a
// clock step backwards must not corrupt the sum's sign).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// --- event hooks --------------------------------------------------------

// Sink receives the two structured events the registry cannot carry:
// the wall-clock length of each 2D recovery pass and of each completed
// scrub sweep, for consumers that attribute time per pass. Every other
// resilience fact is a registered counter. Implementations must be
// safe for concurrent use and should return quickly: emitters call
// them inline from recovery and scrub paths (never from the clean-hit
// fast path). Install NopSink{} — or leave the emitter's sink unset —
// for zero overhead.
type Sink interface {
	// RecoveryEnd fires when a recovery pass finishes, successfully or
	// not, with its wall-clock duration. A 2D array's recovery is
	// array-wide, so it passes set = way = -1.
	RecoveryEnd(array string, set, way int, success bool, d time.Duration)
	// ScrubPass fires after a completed scrub sweep over `banks` banks:
	// clean reports whether every bank checked (or was repaired) clean,
	// victims is how many ways the sweep handed to degradation.
	ScrubPass(banks int, clean bool, victims int, d time.Duration)
}

// NopSink is the no-op default Sink: every method is an empty inlinable
// body, so an installed NopSink costs one interface dispatch on the
// (already slow) event paths and nothing on the clean-hit path.
type NopSink struct{}

// RecoveryEnd implements Sink.
func (NopSink) RecoveryEnd(string, int, int, bool, time.Duration) {}

// ScrubPass implements Sink.
func (NopSink) ScrubPass(int, bool, int, time.Duration) {}

var _ Sink = NopSink{}
