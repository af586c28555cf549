package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// nearestRank is the reference the histogram must match: the
// ceil(q·n)-th smallest sample, in whole microseconds.
func nearestRank(samples []time.Duration, q float64) int64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return int64(s[r-1] / time.Microsecond)
}

func TestPercentileMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 99, 100, 101, 5000} {
		h := newLatencyHist()
		var samples []time.Duration
		for i := 0; i < n; i++ {
			// Log-uniform from 1 ns to 100 ms.
			d := time.Duration(math.Exp(rng.Float64() * math.Log(1e8)))
			samples = append(samples, d)
			h.add(d)
		}
		for _, q := range []float64{0.5, 0.99, 1} {
			got, ok := h.percentile(q)
			want := nearestRank(samples, q)
			if !ok || int64(math.Floor(got)) != want {
				t.Errorf("n=%d p%g = %v (ok %v), want %d µs", n, q*100, got, ok, want)
			}
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if v, ok := newLatencyHist().percentile(0.5); ok || v != 0 {
		t.Fatalf("empty p50 = %v, %v; want 0, false", v, ok)
	}
}

func TestPercentileAllOverflow(t *testing.T) {
	h := newLatencyHist()
	for i := 0; i < 10; i++ {
		h.add(time.Duration(histLimitUs+i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		if v, ok := h.percentile(q); ok || v != histLimitUs {
			t.Fatalf("all-overflow p%g = %v, %v; want %d, false", q*100, v, ok, histLimitUs)
		}
	}
	if h.over != 10 || h.n != 10 {
		t.Fatalf("over %d n %d, want 10 10", h.over, h.n)
	}
}

// The rank falls in the last exact bucket only when the overflow is
// small enough; p99 of 98 fast and 2 slow samples is fast.
func TestPercentileMixedOverflow(t *testing.T) {
	h := newLatencyHist()
	for i := 0; i < 98; i++ {
		h.add(40 * time.Microsecond)
	}
	h.add(time.Second)
	h.add(time.Second)
	if v, ok := h.percentile(0.98); !ok || math.Floor(v) != 40 {
		t.Fatalf("p98 = %v, %v; want 40.x, true", v, ok)
	}
	if v, ok := h.percentile(0.99); ok || v != histLimitUs {
		t.Fatalf("p99 = %v, %v; want overflow", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
