package fault

import (
	"context"
	"math"
	"math/rand"
	"time"

	"twodcache/internal/twod"
)

// StormConfig parameterises a continuous Poisson fault storm — the
// online analogue of an injection campaign: events arrive with
// exponential inter-arrival times and multi-bit footprints drawn from
// an event-size distribution, for as long as the storm runs.
type StormConfig struct {
	// Seed makes the storm reproducible.
	Seed int64
	// MeanInterval is the mean time between fault events (the inverse
	// of the Poisson rate). Must be positive.
	MeanInterval time.Duration
	// Dist is the event footprint distribution; a zero value selects
	// ModernDist.
	Dist EventSizeDist
}

// Storm generates a continuous stream of fault events. It is NOT safe
// for concurrent use: one driver goroutine owns a storm.
type Storm struct {
	rng    *rand.Rand
	mean   time.Duration
	dist   EventSizeDist
	events uint64
}

// NewStorm builds a storm from the configuration.
func NewStorm(cfg StormConfig) *Storm {
	dist := cfg.Dist
	if len(dist.Sizes) == 0 {
		dist = ModernDist()
	}
	mean := cfg.MeanInterval
	if mean <= 0 {
		mean = time.Millisecond
	}
	return &Storm{
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		mean: mean,
		dist: dist,
	}
}

// NextDelay samples the exponential inter-arrival time to the next
// fault event.
func (s *Storm) NextDelay() time.Duration {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return time.Duration(-float64(s.mean) * math.Log(u))
}

// NextEvent samples the next event's footprint against an array of the
// given geometry.
func (s *Storm) NextEvent(rows, cols int) Pattern {
	s.events++
	return SoftEvent(s.rng, rows, cols, s.dist)
}

// Run drives the storm in real time until ctx ends, calling event once
// per arrival. Sub-millisecond inter-arrival times are far below Go
// timer granularity, so a 1 ms ticker fires every arrival that fell
// due within the tick. The draws are NextDelay, then per arrival event
// (which samples its footprint with NextEvent) and the next NextDelay.
func (s *Storm) Run(ctx context.Context, event func()) {
	const tick = time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	pending := s.NextDelay()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for pending -= tick; pending <= 0; pending += s.NextDelay() {
			event()
		}
	}
}

// FlipIfClean is the storm's clean-word gate: it flips physical cell
// (row, col) of a only if the word holding that cell currently checks
// clean, and reports whether it flipped. Striking only clean words
// keeps every storm fault within the horizontal code's guaranteed
// detection; the live storms and the replayer call this one gate, so a
// replayed flip lands exactly where the live one did. The caller holds
// the array's lock.
func FlipIfClean(a *twod.Array, row, col int) bool {
	w, _ := a.Layout().Locate(col)
	if _, ok := a.TryReadUint64(row, w); !ok {
		return false
	}
	a.FlipBit(row, col)
	return true
}
