package fault

import (
	"math"
	"math/rand"
	"testing"
)

func TestPatternBounds(t *testing.T) {
	p := SolidCluster(10, 20, 4, 8)
	h, w := p.Bounds()
	if h != 4 || w != 8 {
		t.Fatalf("bounds = %dx%d", h, w)
	}
	if len(p.Flips) != 32 {
		t.Fatalf("flips = %d", len(p.Flips))
	}
	empty := Pattern{}
	if h, w := empty.Bounds(); h != 0 || w != 0 {
		t.Fatal("empty bounds nonzero")
	}
}

func TestSparseClusterSpansBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		hh, ww := 1+rng.Intn(16), 1+rng.Intn(16)
		p := SparseCluster(rng, 5, 7, hh, ww, 0.3)
		h, w := p.Bounds()
		if h != hh || w != ww {
			t.Fatalf("sparse bounds = %dx%d, want %dx%d", h, w, hh, ww)
		}
	}
}

func TestRowFailureAndSingleBit(t *testing.T) {
	p := RowFailure(3, 100)
	if len(p.Flips) != 100 {
		t.Fatalf("row failure flips = %d", len(p.Flips))
	}
	for _, f := range p.Flips {
		if f.Row != 3 {
			t.Fatal("row failure escaped its row")
		}
	}
	// A 1x1 solid cluster is the single-bit upset.
	s := SolidCluster(1, 2, 1, 1)
	if len(s.Flips) != 1 || s.Flips[0] != (Flip{1, 2}) {
		t.Fatalf("single bit = %+v", s)
	}
}

func TestColumnStuckAtStaysInColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := ColumnStuckAt(rng, 42, 256)
	if len(p.Flips) == 0 {
		t.Fatal("no flips")
	}
	// ~half the rows on average.
	if len(p.Flips) < 80 || len(p.Flips) > 176 {
		t.Fatalf("stuck column flipped %d of 256 cells", len(p.Flips))
	}
	for _, f := range p.Flips {
		if f.Col != 42 {
			t.Fatal("flip escaped the column")
		}
	}
}

func TestFITRate(t *testing.T) {
	// 1000 FIT/Mb on 1 Mb => 1000 failures per 1e9 hours = 1e-6/hour.
	got := FITRate(1000, 1<<20)
	want := 1000.0 * (float64(1<<20) / 1e6) / 1e9
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("FITRate = %v, want %v", got, want)
	}
}

func TestEventSizeDist(t *testing.T) {
	d := ModernDist()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := EventSizeDist{Sizes: []EventSize{{1, 1}}, Probs: []float64{0.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-normalised distribution accepted")
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[EventSize]int{}
	for i := 0; i < 5000; i++ {
		counts[d.Sample(rng)]++
	}
	if c := counts[EventSize{1, 1}]; c < 2700 || c > 3300 {
		t.Fatalf("single-bit fraction = %d/5000, want ~3000", c)
	}
}

func TestSoftEventInsideArray(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := SoftEvent(rng, 64, 128, ModernDist())
		for _, f := range p.Flips {
			if f.Row < 0 || f.Row >= 64 || f.Col < 0 || f.Col >= 128 {
				t.Fatalf("flip out of bounds: %+v", f)
			}
		}
	}
}
