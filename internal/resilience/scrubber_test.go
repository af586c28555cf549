package resilience

import (
	"context"
	"testing"
	"time"
)

func TestSweepRepairsRecoverableDamage(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	c := e.Cache()
	if err := write1(c, 0, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	da.FlipBit(0, 3)

	s := e.NewScrubber(ScrubberConfig{})
	if !s.Sweep() {
		t.Fatal("recoverable damage reported unclean")
	}
	if r := e.Report(); r.ScrubPasses != 1 || r.ScrubVictims != 0 {
		t.Fatalf("passes=%d victims=%d", r.ScrubPasses, r.ScrubVictims)
	}
	if got, err := read1(c, 0, 1); err != nil || got[0] != 0x42 {
		t.Fatalf("data after sweep: %v %v", got, err)
	}
}

func TestSweepRetiresBeyondCoverageVictims(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	plantBeyondCoverage(t, e)

	s := e.NewScrubber(ScrubberConfig{})
	if s.Sweep() {
		t.Fatal("ambiguous damage reported clean")
	}
	if v := e.Report().ScrubVictims; v != 2 {
		t.Fatalf("victims = %d, want the ambiguous pair", v)
	}
	if e.Report().DisabledWays != 2 {
		t.Fatalf("victims not decommissioned: %+v", e.Report())
	}
	// After degradation the arrays are consistent again.
	if !s.Sweep() {
		t.Fatal("cache still inconsistent after retiring victims")
	}
	// The flushed data survives via refetch.
	if got, err := read1(e, 0, 1); err != nil || got[0] != 0x11 {
		t.Fatalf("read after sweep degrade: %v %v", got, err)
	}
	if got, err := read1(e, 16*64, 1); err != nil || got[0] != 0x22 {
		t.Fatalf("read after sweep degrade: %v %v", got, err)
	}
}

// TestRunBacksOffUnderLoadAndCatchesUp scripts the clock, sleeps, and
// access counter: under a sustained high access rate the scrubber must
// defer sweeps (backoffs), but never past MaxDelay — the catch-up
// guarantee.
func TestRunBacksOffUnderLoadAndCatchesUp(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	s := e.NewScrubber(ScrubberConfig{
		Interval:     10 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
		HighRate:     100, // accesses/sec
		MaxDelay:     30 * time.Millisecond,
	})
	now := time.Unix(0, 0)
	s.clock = func() time.Time { return now }
	// Access counter grows 10k/sec — far above HighRate, forever.
	s.accessFn = func() uint64 { return uint64(now.UnixNano() / 100_000) }
	sleeps := 0
	s.sleep = func(ctx context.Context, d time.Duration) bool {
		now = now.Add(d)
		sleeps++
		return sleeps < 40
	}
	_ = s.Run(context.Background())

	r := e.Report()
	if r.ScrubBackoffs == 0 {
		t.Fatal("scrubber never backed off under sustained load")
	}
	if r.ScrubPasses == 0 {
		t.Fatal("MaxDelay did not force a catch-up sweep under sustained load")
	}
	// Deferral is bounded: per completed sweep at most
	// ceil(MaxDelay/PollInterval) = 3 backoffs.
	if r.ScrubBackoffs > 3*(r.ScrubPasses+1) {
		t.Fatalf("backoffs %d exceed the MaxDelay bound for %d passes",
			r.ScrubBackoffs, r.ScrubPasses)
	}
}

func TestRunSweepsFreelyWhenIdle(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	s := e.NewScrubber(ScrubberConfig{
		Interval: 10 * time.Millisecond,
		HighRate: 100,
	})
	now := time.Unix(0, 0)
	s.clock = func() time.Time { return now }
	s.accessFn = func() uint64 { return 0 } // idle
	sleeps := 0
	s.sleep = func(ctx context.Context, d time.Duration) bool {
		now = now.Add(d)
		sleeps++
		return sleeps < 10
	}
	_ = s.Run(context.Background())
	r := e.Report()
	if r.ScrubBackoffs != 0 {
		t.Fatalf("idle cache caused %d backoffs", r.ScrubBackoffs)
	}
	if r.ScrubPasses < 9 {
		t.Fatalf("idle cache swept only %d times in 10 intervals", r.ScrubPasses)
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	s := e.NewScrubber(ScrubberConfig{Interval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("scrubber did not stop on cancel")
	}
}
