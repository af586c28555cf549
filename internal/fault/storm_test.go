package fault

import (
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
	if s.Events() != 500 {
		t.Fatalf("event count %d", s.Events())
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
