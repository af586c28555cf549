package resilience

import (
	"context"
	"sync"
	"time"
)

// ScrubberConfig tunes the background sweeper.
type ScrubberConfig struct {
	// Interval is the pause between completed sweeps (default 50ms).
	Interval time.Duration
	// HighRate, in accesses/second, is the traffic level above which
	// the scrubber backs off instead of sweeping. Zero disables
	// traffic-awareness (the scrubber always sweeps on schedule).
	HighRate float64
	// PollInterval is how often a backed-off scrubber re-checks the
	// load (default Interval/5, min 1ms).
	PollInterval time.Duration
	// MaxDelay bounds how long a sweep may be deferred under sustained
	// load before it runs anyway — the catch-up guarantee (default
	// 10×Interval).
	MaxDelay time.Duration
}

func (c ScrubberConfig) withDefaults() ScrubberConfig {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = c.Interval / 5
		if c.PollInterval < time.Millisecond {
			c.PollInterval = time.Millisecond
		}
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10 * c.Interval
	}
	return c
}

// Scrubber sweeps every protected sub-array with full 2D recovery on a
// configurable interval, traffic-aware: it backs off while the access
// rate is high and catches up when the cache goes idle (cf. Kishani et
// al.'s traffic-aware ECC maintenance). Victims a sweep cannot repair
// are handed to the engine's degrade rung. Pass/backoff/victim counts
// and sweep latency are served through the engine's metrics registry,
// and every completed sweep emits a ScrubPass event.
type Scrubber struct {
	engine *Engine
	cfg    ScrubberConfig

	// accessFn, clock and sleep are injection points for tests; they
	// default to the cache's access counter and real time. bankHook,
	// when set, runs after each bank of a sweep (cancel-mid-pass tests).
	accessFn func() uint64
	clock    func() time.Time
	sleep    func(ctx context.Context, d time.Duration) bool
	bankHook func(bank int)

	// Start/Stop state: the running goroutine's cancel and exit signal.
	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// NewScrubber builds the engine's background scrubber and attaches it
// so Report includes scrub activity. Call Run to start it.
func (e *Engine) NewScrubber(cfg ScrubberConfig) *Scrubber {
	s := &Scrubber{
		engine:   e,
		cfg:      cfg.withDefaults(),
		accessFn: e.cache.Accesses,
		clock:    e.clock,
		sleep:    realSleep,
	}
	e.mu.Lock()
	e.scrubber = s
	e.mu.Unlock()
	return s
}

func realSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Sweep runs one full scrubbing pass over every bank, degrading any
// ways whose damage exceeds 2D coverage. It reports whether every bank
// checked (or was repaired) clean without needing degradation.
func (s *Scrubber) Sweep() bool {
	clean, _ := s.sweepCtx(context.Background())
	return clean
}

// sweepCtx is Sweep with mid-pass cancellation: ctx is checked between
// banks, and an interrupted sweep reports completed=false WITHOUT
// counting a pass, observing a latency, or emitting a ScrubPass event
// — a partial sweep must never masquerade as scrub coverage in the
// stats an operator uses to judge whether scrubbing keeps up.
// Individual banks already swept stay repaired (the work is real; only
// the accounting of a full pass is withheld).
func (s *Scrubber) sweepCtx(ctx context.Context) (clean, completed bool) {
	c := s.engine.cache
	start := s.clock()
	clean = true
	retired := 0
	for i := 0; i < c.NumBanks(); i++ {
		if ctx.Err() != nil {
			return clean, false
		}
		ok, n := s.SweepBank(i)
		if !ok {
			clean = false
			retired += n
		}
		if s.bankHook != nil {
			s.bankHook(i)
		}
	}
	d := s.clock().Sub(start)
	s.engine.scrubPasses.Inc()
	s.engine.scrubLatency.Observe(d)
	s.engine.snk().ScrubPass(c.NumBanks(), clean, retired, d)
	return clean, true
}

// SweepBank scrubs one bank: full 2D recovery, then graceful
// degradation of every way the recovery could not repair. It reports
// whether the bank checked (or was repaired) clean, and how many ways
// were retired. The deterministic replay harness drives scrubbing
// through this entry point so a replayed scrub event performs exactly
// the sweep a live scrubber would.
func (s *Scrubber) SweepBank(i int) (clean bool, retired int) {
	ok, victims := s.engine.cache.ScrubBank(i)
	if ok {
		return true, 0
	}
	for _, v := range victims {
		s.engine.scrubVictims.Inc()
		s.engine.Degrade(v.Set, v.Way)
	}
	return false, len(victims)
}

// Run sweeps until ctx is cancelled, returning ctx.Err(). Between
// sweeps it sleeps Interval; when the observed access rate exceeds
// HighRate it defers the sweep in PollInterval steps, up to MaxDelay,
// then sweeps regardless (catch-up).
func (s *Scrubber) Run(ctx context.Context) error {
	lastAcc := s.accessFn()
	lastT := s.clock()
	for {
		if !s.sleep(ctx, s.cfg.Interval) {
			return ctx.Err()
		}
		deferred := time.Duration(0)
		for s.cfg.HighRate > 0 {
			now := s.clock()
			acc := s.accessFn()
			dt := now.Sub(lastT).Seconds()
			if dt <= 0 {
				dt = s.cfg.Interval.Seconds()
			}
			rate := float64(acc-lastAcc) / dt
			lastAcc, lastT = acc, now
			if rate <= s.cfg.HighRate || deferred >= s.cfg.MaxDelay {
				break
			}
			s.engine.scrubBackoffs.Inc()
			if !s.sleep(ctx, s.cfg.PollInterval) {
				return ctx.Err()
			}
			deferred += s.cfg.PollInterval
		}
		if _, completed := s.sweepCtx(ctx); !completed {
			return ctx.Err()
		}
	}
}

// Start launches Run in a background goroutine; idempotent until Stop.
// Prefer Start/Stop over `go s.Run(ctx)` at shutdown boundaries: Stop
// joins the goroutine, so no sweep is still running (and no pass can
// be half-counted) after it returns.
func (s *Scrubber) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.cancel, s.done = cancel, done
	go func() {
		defer close(done)
		_ = s.Run(ctx)
	}()
}

// Stop cancels the background goroutine and waits for it to exit — any
// in-progress sweep aborts at the next bank boundary and is not
// counted as a completed pass.
func (s *Scrubber) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel, s.done = nil, nil
	s.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}
