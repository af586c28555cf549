package resilience

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"twodcache/internal/obs"
	"twodcache/internal/pcache"
)

// goroutineCount samples runtime.NumGoroutine after nudging the
// scheduler, so freshly-exited goroutines are actually gone.
func goroutineCount() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// TestScrubberStartStopNoLeak is the shutdown-audit regression: every
// Start/Stop cycle must return the process to its baseline goroutine
// count — a leaked sweeper would accumulate one goroutine per cache
// lifecycle in a long-lived server.
func TestScrubberStartStopNoLeak(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	s := e.NewScrubber(ScrubberConfig{Interval: time.Millisecond})

	before := goroutineCount()
	for cycle := 0; cycle < 5; cycle++ {
		s.Start()
		s.Start() // idempotent: must not spawn a second sweeper
		time.Sleep(3 * time.Millisecond)
		s.Stop()
		s.Stop() // idempotent: must not panic or hang
	}
	deadline := time.Now().Add(5 * time.Second)
	for goroutineCount() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := goroutineCount(); after > before {
		t.Fatalf("goroutines: %d before, %d after 5 Start/Stop cycles", before, after)
	}
}

// scrubEventSink records ScrubPass emissions.
type scrubEventSink struct {
	obs.NopSink
	mu     sync.Mutex
	passes int
}

func (s *scrubEventSink) ScrubPass(int, bool, int, time.Duration) {
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
}

func (s *scrubEventSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes
}

// TestScrubberCancelMidPass cancels a sweep between banks: the
// interrupted pass must not count in ScrubPasses, must not observe a
// latency, and must not emit a ScrubPass event — partial coverage is
// not coverage. Run under -race by tier-1.
func TestScrubberCancelMidPass(t *testing.T) {
	sink := &scrubEventSink{}
	cfg := pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 4}
	e, _ := newEngine(t, cfg, Config{})
	e.SetEventSink(sink)
	s := e.NewScrubber(ScrubberConfig{})

	ctx, cancel := context.WithCancel(context.Background())
	s.bankHook = func(bank int) {
		if bank == 1 {
			cancel() // mid-pass: banks 2 and 3 still unswept
		}
	}
	clean, completed := s.sweepCtx(ctx)
	if completed {
		t.Fatal("cancelled sweep reported completed")
	}
	_ = clean
	if got := e.Report().ScrubPasses; got != 0 {
		t.Fatalf("partial sweep counted as %d passes", got)
	}
	if sink.count() != 0 {
		t.Fatalf("partial sweep emitted %d ScrubPass events", sink.count())
	}
	if lat := e.metrics.Snapshot().Histogram(metricScrubSeconds); lat.Count != 0 {
		t.Fatalf("partial sweep observed %d latencies", lat.Count)
	}

	// An uncancelled sweep on the same scrubber counts exactly once.
	s.bankHook = nil
	if _, completed := s.sweepCtx(context.Background()); !completed {
		t.Fatal("clean-context sweep did not complete")
	}
	if got := e.Report().ScrubPasses; got != 1 || sink.count() != 1 {
		t.Fatalf("completed sweep accounting: passes=%d events=%d", got, sink.count())
	}
}

// TestScrubberStopAbortsSweepPromptly wedges a sweep mid-pass and calls
// Stop from another goroutine: Stop must join without waiting for the
// remaining banks.
func TestScrubberStopAbortsSweepPromptly(t *testing.T) {
	cfg := pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 4}
	e, _ := newEngine(t, cfg, Config{})
	s := e.NewScrubber(ScrubberConfig{Interval: time.Millisecond})

	entered := make(chan struct{})
	var once sync.Once
	s.bankHook = func(bank int) {
		once.Do(func() { close(entered) })
		// Each bank boundary dawdles; a Stop mid-pass must not have to
		// sit through all of them.
		time.Sleep(2 * time.Millisecond)
	}
	s.Start()
	<-entered
	stopDone := make(chan struct{})
	go func() {
		s.Stop()
		close(stopDone)
	}()
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on an in-progress sweep")
	}
}
