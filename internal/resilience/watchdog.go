package resilience

import (
	"context"
	"time"
)

// WatchdogConfig tunes the recovery watchdog.
type WatchdogConfig struct {
	// Budget is the wall-clock allowance for one in-flight repair;
	// repairs older than this are force-escalated. Zero or negative
	// selects 100ms.
	Budget time.Duration
	// Poll is how often the watchdog scans the in-flight repairs. Zero
	// or negative selects Budget/4 (at least 1ms).
	Poll time.Duration
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Budget <= 0 {
		c.Budget = 100 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = c.Budget / 4
		if c.Poll < time.Millisecond {
			c.Poll = time.Millisecond
		}
	}
	return c
}

// Watchdog is the stuck-repair detector: a background scanner over the
// engine's in-flight repairs that force-escalates any repair running
// past its budget — it decommissions the repair's way (the terminal
// ladder rung, always fast) and cancels the repair context, releasing
// a leader wedged in a stalled rung and every waiter coalesced behind
// it. Recovery thereby has the same property the ladder gives
// correction: it terminates, even when a rung does not.
type Watchdog struct {
	e   *Engine
	cfg WatchdogConfig

	lifecycle
}

// NewWatchdog builds a watchdog over the engine's in-flight repairs.
// Start it with Start/Stop (or drive Run under your own context). Ages
// are measured with the engine's clock; the poll cadence is wall time.
func (e *Engine) NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{e: e, cfg: cfg.withDefaults()}
}

// ScanOnce inspects every in-flight repair and force-escalates those
// over budget: each victim's way is decommissioned and its repair
// context cancelled, exactly once per flight. Returns how many repairs
// were forced. Exported so tests and deterministic harnesses can drive
// the watchdog without its goroutine.
func (w *Watchdog) ScanOnce() int {
	e := w.e
	now := e.clock()
	var victims []*flight
	e.flightMu.Lock()
	for _, fl := range e.flights {
		if now.Sub(fl.start) > w.cfg.Budget && fl.forced.CompareAndSwap(false, true) {
			victims = append(victims, fl)
		}
	}
	e.flightMu.Unlock()
	// Escalation runs outside flightMu: Degrade takes bank and engine
	// locks, and the leader it wakes may immediately need flightMu to
	// finish the flight.
	for _, fl := range victims {
		e.watchdogFires.Inc()
		e.Degrade(fl.set, fl.way)
		fl.cancel()
	}
	return len(victims)
}

// Run scans until ctx is cancelled.
func (w *Watchdog) Run(ctx context.Context) {
	t := time.NewTicker(w.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.ScanOnce()
		}
	}
}

// Start launches Run in a goroutine; idempotent until Stop.
func (w *Watchdog) Start() { w.start(w.Run) }

// Stop cancels the scanner and waits for it to exit.
func (w *Watchdog) Stop() { w.stop() }
