package obs

import (
	"testing"
	"time"
)

// TestQuantileTable pins the interpolation arithmetic bucket by bucket:
// containing-bucket selection, the rank floor at 1 (so q→0 reports the
// smallest observation's bucket, never an earlier empty one), overflow
// containment, and exact interpolated values.
func TestQuantileTable(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	bounds := []time.Duration{ms(1), ms(2), ms(4), ms(8)}

	cases := []struct {
		name   string
		counts []uint64 // len(bounds)+1; last is the overflow bucket
		q      float64
		want   time.Duration
	}{
		{
			// 10 observations in (1ms,2ms]. q=0.5 → rank 5, frac 0.5:
			// halfway through the bucket.
			name:   "interpolate-mid-bucket",
			counts: []uint64{0, 10, 0, 0, 0},
			q:      0.5, want: ms(1) + ms(1)/2,
		},
		{
			// q=1 → rank 10, frac 1: the bucket's upper bound exactly.
			name:   "q1-upper-bound",
			counts: []uint64{0, 10, 0, 0, 0},
			q:      1, want: ms(2),
		},
		{
			// The off-by-one-bucket case the rank floor fixes: every
			// observation lives in (2ms,4ms], yet q=0 used to answer
			// Bounds[0]=1ms — a bucket nothing landed in. Rank 1 of 10
			// interpolates a tenth into the populated bucket.
			name:   "q0-skips-empty-buckets",
			counts: []uint64{0, 0, 10, 0, 0},
			q:      0, want: ms(2) + (ms(4)-ms(2))/10,
		},
		{
			// Same floor via a tiny q: rank 0.1 floors to 1.
			name:   "tiny-q-floors-to-rank-1",
			counts: []uint64{0, 0, 10, 0, 0},
			q:      0.01, want: ms(2) + (ms(4)-ms(2))/10,
		},
		{
			// Rank lands on the exact boundary between buckets: cum+c ==
			// rank selects the earlier bucket and frac 1 answers its
			// upper bound — not the start of the next.
			name:   "rank-on-bucket-boundary",
			counts: []uint64{5, 5, 0, 0, 0},
			q:      0.5, want: ms(1),
		},
		{
			// Rank one past the boundary: first observation of bucket 1.
			name:   "rank-just-past-boundary",
			counts: []uint64{5, 5, 0, 0, 0},
			q:      0.6, want: ms(1) + (ms(2)-ms(1))/5,
		},
		{
			// Overflow containment: half the mass beyond the last finite
			// bound. q=0.9 ranks into the overflow bucket, which the
			// histogram cannot resolve — the largest finite bound is the
			// honest answer.
			name:   "overflow-reports-last-bound",
			counts: []uint64{5, 0, 0, 0, 5},
			q:      0.9, want: ms(8),
		},
		{
			// All mass in overflow: every quantile saturates.
			name:   "all-overflow",
			counts: []uint64{0, 0, 0, 0, 7},
			q:      0.01, want: ms(8),
		},
		{
			// First bucket populated: rank 1 of 4, a quarter in. lo is 0
			// for bucket 0.
			name:   "first-bucket-interpolates-from-zero",
			counts: []uint64{4, 0, 0, 0, 0},
			q:      0, want: ms(1) / 4,
		},
		{
			// q clamps: below 0 behaves like 0, above 1 like 1.
			name:   "q-clamps-low",
			counts: []uint64{4, 0, 0, 0, 0},
			q:      -3, want: ms(1) / 4,
		},
		{
			name:   "q-clamps-high",
			counts: []uint64{4, 0, 0, 0, 0},
			q:      7, want: ms(1),
		},
		{
			// A hole between populated buckets is skipped, not reported:
			// rank 6 of 10 passes bucket 0 (5), skips empty buckets, and
			// lands in (4ms,8ms].
			name:   "hole-between-buckets",
			counts: []uint64{5, 0, 0, 5, 0},
			q:      0.6, want: ms(4) + (ms(8)-ms(4))/5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var count uint64
			for _, c := range tc.counts {
				count += c
			}
			s := HistogramSnapshot{Bounds: bounds, Counts: tc.counts, Count: count}
			if got := s.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}

	empty := HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, 5)}
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

// TestHistogramSnapshotMethod pins the exported Histogram.Snapshot: the
// same coherent view Registry.Snapshot exports, available to holders of
// the bare histogram.
func TestHistogramSnapshotMethod(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Minute) // overflow

	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("Σ Counts = %d != Count %d", sum, s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("Counts = %v, want [1 1 1]", s.Counts)
	}
	want := 500*time.Microsecond + 5*time.Millisecond + time.Minute
	if s.Sum != want {
		t.Fatalf("Sum = %v, want %v", s.Sum, want)
	}

	// Registry.Snapshot must agree with the direct method.
	rs := r.Snapshot().Histogram("lat")
	if rs.Count != s.Count || rs.Sum != s.Sum {
		t.Fatalf("registry view (%d, %v) != direct view (%d, %v)",
			rs.Count, rs.Sum, s.Count, s.Sum)
	}
}
