package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"twodcache/internal/pcache"
)

// Rung identifiers for progress reporting (flight.rung).
const (
	rungRetry int32 = iota
	rungWord
	rungFull
	rungDegrade
)

func rungName(r int32) string {
	switch r {
	case rungRetry:
		return "retry"
	case rungWord:
		return "word"
	case rungFull:
		return "full-2d"
	default:
		return "degrade"
	}
}

// flight is one in-flight repair on one bank — the single-flight unit.
// Exactly one goroutine (the leader) advances the repair; every other
// request that trips an uncorrectable on the same bank while it runs
// coalesces onto it, waiting on done under its own deadline. The
// flight's context is cancelled when the repair resolves, when the
// leader's caller cancels, or when the repair budget runs out —
// whichever comes first — so a stalled rung always has a release path.
type flight struct {
	bank     int
	array    string
	set, way int
	start    time.Time

	// budget, armed when Config.RepairBudget is set, forces the flight
	// if it outlives the budget; finishFlight stops it.
	budget *time.Timer

	// rung is the deepest ladder rung the repair has entered, for
	// progress reporting to abandoning waiters.
	rung atomic.Int32

	// done resolves the flight: closed exactly once, after which waiters
	// re-issue their access.
	done chan struct{}

	// ctx/cancel bound the repair's blocking points (fault.Stall, and
	// any future long rung). forced records that the cancellation came
	// from the repair budget rather than the leader's caller.
	ctx    context.Context
	cancel context.CancelFunc
	forced atomic.Bool

	once sync.Once
}

// resolve closes done and cancels the repair context, exactly once.
func (fl *flight) resolve() {
	fl.once.Do(func() {
		close(fl.done)
		fl.cancel()
	})
}

// joinFlight returns the bank's in-flight repair, creating one anchored
// at ue's location if none is running. leader reports whether the
// caller now owns the repair (and must finishFlight it). start is the
// moment the DUE entered the ladder: a new flight's repair budget is
// what is left of Config.RepairBudget at that age.
func (e *Engine) joinFlight(bank int, ue *pcache.UncorrectableError, start time.Time) (fl *flight, leader bool) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if fl, ok := e.flights[bank]; ok {
		return fl, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	fl = &flight{
		bank:   bank,
		array:  ue.Array,
		set:    ue.Set,
		way:    ue.Way,
		start:  start,
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
	}
	if e.cfg.RepairBudget > 0 {
		fl.budget = time.AfterFunc(e.cfg.RepairBudget-e.clock().Sub(start), func() { e.force(fl) })
	}
	e.flights[bank] = fl
	return fl, true
}

// finishFlight retires the flight from the bank slot and resolves it,
// releasing every coalesced waiter. Idempotent.
func (e *Engine) finishFlight(fl *flight) {
	if fl.budget != nil {
		fl.budget.Stop()
	}
	e.flightMu.Lock()
	if cur, ok := e.flights[fl.bank]; ok && cur == fl {
		delete(e.flights, fl.bank)
	}
	e.flightMu.Unlock()
	fl.resolve()
}

// force is the repair budget running out: a flight that is still its
// bank's current flight is force-escalated, exactly once — its way is
// decommissioned (the terminal ladder rung, always fast) and its
// context cancelled, releasing a leader wedged in a stalled rung and
// every waiter coalesced behind it. Recovery thereby has the property
// the ladder gives correction: it terminates, even when a rung does
// not. A timer that fires as the flight finishes finds it retired and
// does nothing.
func (e *Engine) force(fl *flight) {
	e.flightMu.Lock()
	current := e.flights[fl.bank] == fl && fl.forced.CompareAndSwap(false, true)
	e.flightMu.Unlock()
	if !current {
		return
	}
	// Escalation runs outside flightMu: Degrade takes bank and engine
	// locks, and the leader it wakes may immediately need flightMu to
	// finish the flight.
	e.watchdogFires.Inc()
	e.Degrade(fl.set, fl.way)
	fl.cancel()
}

// progressErr builds the typed abandonment error for fl, stamped with
// the repair's current rung and age.
func (e *Engine) progressErr(fl *flight, cause error) error {
	return &RecoveryInProgressError{
		Bank:    fl.bank,
		Array:   fl.array,
		Set:     fl.set,
		Way:     fl.way,
		Rung:    rungName(fl.rung.Load()),
		Elapsed: e.clock().Sub(fl.start),
		Err:     cause,
	}
}
