package resilience

import (
	"sync"
	"time"
)

// BreakerVerdict is a HealthBreaker's routing decision for one would-be
// operation against the resource it guards.
type BreakerVerdict int

const (
	// BreakerRun: proceed normally (breaker closed or disabled).
	BreakerRun BreakerVerdict = iota
	// BreakerProbe: proceed as the half-open probe; the caller MUST
	// report the outcome with Record(true, ...) or return the slot with
	// Release(true).
	BreakerProbe
	// BreakerShed: skip the guarded operation (resource presumed down).
	BreakerShed
)

// HealthBreaker is the reusable three-state circuit breaker behind the
// engine's per-bank repair breakers: closed → open after
// FailureThreshold consecutive failures, open → half-open after
// OpenTimeout with exactly one probe out at a time, half-open → closed
// after ProbeSuccesses consecutive good probes (or back to open on a
// probe failure). It guards any failure-prone resource — a cache bank's
// recovery rungs, a remote replica endpoint — and is safe for
// concurrent use.
//
// The optional onTransition hook fires under the breaker lock on every
// state change, with the state names ("closed", "open", "half-open");
// it must not call back into the breaker.
type HealthBreaker struct {
	cfg          BreakerConfig
	clock        func() time.Time
	onTransition func(from, to string)

	mu       sync.Mutex
	state    breakerState
	fails    int  // consecutive failures while closed
	probeOK  int  // consecutive probe successes while half-open
	probing  bool // a probe is currently out
	openedAt time.Time
}

// NewHealthBreaker builds a breaker. A nil clock selects time.Now; a
// nil onTransition disables the hook. cfg defaults are applied
// (FailureThreshold 5, OpenTimeout 10ms, ProbeSuccesses 2); a Disabled
// cfg yields a breaker that always answers BreakerRun.
func NewHealthBreaker(cfg BreakerConfig, clock func() time.Time, onTransition func(from, to string)) *HealthBreaker {
	if clock == nil {
		clock = time.Now
	}
	return &HealthBreaker{cfg: cfg.withDefaults(), clock: clock, onTransition: onTransition}
}

// Admit asks the breaker how to route a new operation. An open breaker
// whose OpenTimeout has elapsed transitions to half-open here and
// admits the caller as the probe; only one probe is out at a time.
func (b *HealthBreaker) Admit() BreakerVerdict {
	if b.cfg.Disabled {
		return BreakerRun
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return BreakerRun
	case breakerOpen:
		if b.clock().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return BreakerShed
		}
		b.transitionLocked(breakerHalfOpen)
		b.probing = true
		return BreakerProbe
	default: // half-open
		if b.probing {
			return BreakerShed
		}
		b.probing = true
		return BreakerProbe
	}
}

// Record feeds a finished operation's outcome back. probe must be true
// iff Admit answered BreakerProbe for this operation.
func (b *HealthBreaker) Record(probe, success bool) {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch b.state {
	case breakerClosed:
		if success {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.openedAt = b.clock()
			b.transitionLocked(breakerOpen)
		}
	case breakerHalfOpen:
		if success {
			b.probeOK++
			if b.probeOK >= b.cfg.ProbeSuccesses {
				b.transitionLocked(breakerClosed)
			}
			return
		}
		b.openedAt = b.clock()
		b.transitionLocked(breakerOpen)
	case breakerOpen:
		// A result landing after an independent re-open: stale, ignore.
	}
}

// Release returns a probe slot without recording an outcome — the
// operation aborted for reasons that say nothing about the resource's
// health (caller deadline, unrelated hard error).
func (b *HealthBreaker) Release(probe bool) {
	if !probe || b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State reports the current state ("closed", "open", "half-open").
func (b *HealthBreaker) State() string {
	if b.cfg.Disabled {
		return breakerClosed.String()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// transitionLocked moves the breaker to state `to`, maintaining the
// streak counters and firing the hook. Caller holds b.mu.
func (b *HealthBreaker) transitionLocked(to breakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case breakerClosed:
		b.fails, b.probeOK = 0, 0
	case breakerOpen, breakerHalfOpen:
		b.probeOK = 0
	}
	if b.onTransition != nil {
		b.onTransition(from.String(), to.String())
	}
}
