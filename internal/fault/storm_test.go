package fault

import (
	"context"
	"reflect"
	"testing"
	"time"

	"twodcache/internal/ecc"
	"twodcache/internal/twod"
)

func TestStormDelaysAreExponential(t *testing.T) {
	s := NewStorm(StormConfig{Seed: 1, MeanInterval: 2 * time.Millisecond})
	const n = 5000
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := s.NextDelay()
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < time.Millisecond || mean > 4*time.Millisecond {
		t.Fatalf("sample mean %v too far from configured 2ms", mean)
	}
}

func TestStormEventsInBounds(t *testing.T) {
	s := NewStorm(StormConfig{Seed: 2, MeanInterval: time.Millisecond})
	const rows, cols = 64, 576
	for i := 0; i < 500; i++ {
		p := s.NextEvent(rows, cols)
		if len(p.Flips) == 0 {
			continue // sparse cluster may sample empty
		}
		for _, f := range p.Flips {
			if f.Row < 0 || f.Row >= rows || f.Col < 0 || f.Col >= cols {
				t.Fatalf("event %d flip %+v out of %dx%d", i, f, rows, cols)
			}
		}
	}
	if s.events != 500 {
		t.Fatalf("event count %d", s.events)
	}
}

func TestStormDefaults(t *testing.T) {
	s := NewStorm(StormConfig{})
	if d := s.NextDelay(); d <= 0 {
		t.Fatal("default storm produced non-positive delay")
	}
	if p := s.NextEvent(8, 64); p.Kind == "" {
		t.Fatal("default storm produced kindless pattern")
	}
}

// TestStormRun pins the real-time loop: events fire, each one drawn
// in the order NextDelay, then per arrival the event and the next
// NextDelay (checked against a twin storm drawing that order by hand),
// and Run returns once its context ends.
func TestStormRun(t *testing.T) {
	cfg := StormConfig{Seed: 3, MeanInterval: 100 * time.Microsecond}
	s, twin := NewStorm(cfg), NewStorm(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const want = 50
	n := 0 // touched only by Run's goroutine until done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx, func() {
			twin.NextDelay()
			if got, exp := s.NextEvent(8, 64), twin.NextEvent(8, 64); !reflect.DeepEqual(got, exp) {
				t.Errorf("event %d drew %+v, want %+v", n, got, exp)
			}
			if n++; n == want {
				cancel()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its context ended")
	}
	if n < want {
		t.Fatalf("%d events fired, want at least %d", n, want)
	}
}

// TestFlipIfClean pins the storm's clean-word gate: a flip into a word
// that checks clean lands, and a second flip into the same (now dirty)
// word is refused, so no storm event can push a word past the
// horizontal code's guaranteed detection.
func TestFlipIfClean(t *testing.T) {
	a := twod.MustArray(twod.Config{
		Rows: 8, WordsPerRow: 4,
		Horizontal:     ecc.MustEDC(64, 8),
		VerticalGroups: 4,
	})
	lay := a.Layout()
	if !FlipIfClean(a, 2, lay.PhysColumn(1, 0)) {
		t.Fatal("flip into a clean word refused")
	}
	if _, ok := a.TryReadUint64(2, 1); ok {
		t.Fatal("flip did not land")
	}
	if FlipIfClean(a, 2, lay.PhysColumn(1, 9)) {
		t.Fatal("second flip into a dirty word applied")
	}
	if !FlipIfClean(a, 2, lay.PhysColumn(0, 9)) {
		t.Fatal("flip into a clean neighbour word refused")
	}
}
