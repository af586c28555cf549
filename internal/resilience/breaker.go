package resilience

import (
	"time"
)

// BreakerConfig tunes a HealthBreaker. For the engine's per-bank
// breakers (set via Config.Breaker) the breaker sits in front of the
// recovery rungs, not in front of the bank: an open breaker does not
// reject traffic, it routes new uncorrectables on the bank straight to
// the degrade/bypass rung, bounding how much repair latency a
// persistently failing bank can charge its clients. The cluster layer
// reuses the same machine per replica endpoint, where an open breaker
// excludes the endpoint from reads and write fan-out attempts.
type BreakerConfig struct {
	// Disabled turns the breakers off: every repair runs the full
	// ladder, as before this layer existed.
	Disabled bool
	// FailureThreshold is how many consecutive failed repairs (rungs
	// exhausted, watchdog force-escalation) trip a closed breaker open.
	// Zero or negative selects 5.
	FailureThreshold int
	// OpenTimeout is how long an open breaker sheds before allowing a
	// half-open probe repair. Zero or negative selects 10ms.
	OpenTimeout time.Duration
	// ProbeSuccesses is how many consecutive successful probes close a
	// half-open breaker. Zero or negative selects 2.
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 10 * time.Millisecond
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// breakerState is the classic three-state machine.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// newBankBreakers builds the engine's per-bank breakers over the shared
// HealthBreaker machine. The transition hook keeps the engine's gauge
// and trip/transition counters: every entry into the open state is a
// trip.
func (e *Engine) newBankBreakers(n int) []*HealthBreaker {
	onTransition := func(from, to string) {
		if to == breakerOpen.String() {
			e.breakersOpen.Add(1)
			e.breakerTrips.Inc()
		}
		if from == breakerOpen.String() {
			e.breakersOpen.Add(-1)
		}
		e.breakerTransitions.Inc()
	}
	bs := make([]*HealthBreaker, n)
	for i := range bs {
		bs[i] = NewHealthBreaker(e.cfg.Breaker, e.clock, onTransition)
	}
	return bs
}

// BreakerState reports bank's breaker state ("closed", "open",
// "half-open") for reports and tests.
func (e *Engine) BreakerState(bank int) string {
	if bank < 0 || bank >= len(e.breakers) {
		return breakerClosed.String()
	}
	return e.breakers[bank].State()
}
