package obs

import (
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// The obs-overhead suite: what instrumentation costs relative to the
// raw atomics it wraps. Recorded in results/BENCH_obs.md.

func BenchmarkObsRawAtomicAdd(b *testing.B) {
	var v atomic.Uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Add(1)
	}
}

func BenchmarkObsCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := MustHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkObsNopSinkEvent(b *testing.B) {
	var s Sink = NopSink{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecoveryEnd("data", i, 0, true, time.Microsecond)
	}
}

func BenchmarkObsSnapshot(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		r.Counter(n, "").Add(uint64(len(n)))
	}
	r.ClampLE("a", "b")
	r.Histogram("lat", "").Observe(time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func BenchmarkObsWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Counter(n, "help text").Add(uint64(len(n)))
	}
	h := r.Histogram("lat", "latency")
	h.Observe(time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot().WritePrometheus(io.Discard)
	}
}
