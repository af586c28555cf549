package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := MustHistogram(time.Millisecond, 10*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive upper bound)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow bucket
	h.Observe(-time.Second)           // clamps to zero, bucket 0
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	want := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond + time.Second
	if got := h.Snapshot().Sum; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if _, err := NewHistogram(time.Second, time.Millisecond); err == nil {
		t.Fatal("descending bounds accepted")
	}
}

func TestSnapshotMonotonic(t *testing.T) {
	r := NewRegistry()
	v := uint64(100)
	r.CounterFunc("c", "", func() uint64 { return v })
	if got := r.Snapshot().Counter("c"); got != 100 {
		t.Fatalf("first snapshot %d", got)
	}
	v = 40 // a regressing source (torn multi-word sum) must not surface
	if got := r.Snapshot().Counter("c"); got != 100 {
		t.Fatalf("snapshot regressed to %d", got)
	}
	v = 150
	if got := r.Snapshot().Counter("c"); got != 150 {
		t.Fatalf("snapshot stuck at %d", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "")
}

// TestSnapshotInvariantUnderConcurrency hammers an attempts/hits pair
// from writer goroutines (attempt incremented strictly before hit, as
// every real emitter does) while a reader snapshots continuously: with
// hits registered, and so read, before attempts, no snapshot may ever
// show hits > attempts. Meant for -race.
func TestSnapshotInvariantUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("hits", "")
	attempts := r.Counter("attempts", "")
	hist := r.Histogram("lat", "")

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				attempts.Inc()
				hits.Inc()
				hist.Observe(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := r.Snapshot()
		if h, a := s.Counter("hits"), s.Counter("attempts"); h > a {
			t.Fatalf("snapshot %d: hits %d > attempts %d", i, h, a)
		}
		hs := s.Histogram("lat")
		var sum uint64
		for _, c := range hs.Counts {
			sum += c
		}
		if sum != hs.Count {
			t.Fatalf("snapshot %d: bucket sum %d != count %d", i, sum, hs.Count)
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_events_total", "events seen")
	c.Add(3)
	g := r.Gauge("app_ways_disabled", "")
	g.Set(-2)
	h := r.Histogram("app_latency_seconds", "ladder latency", time.Millisecond, time.Second)
	h.Observe(2 * time.Millisecond)
	h.Observe(5 * time.Second)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_events_total events seen",
		"# TYPE app_events_total counter",
		"app_events_total 3",
		"# TYPE app_ways_disabled gauge",
		"app_ways_disabled -2",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.001"} 0`,
		`app_latency_seconds_bucket{le="1"} 1`,
		`app_latency_seconds_bucket{le="+Inf"} 2`,
		"app_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestServeMetrics drives the owned endpoint: both paths serve the
// registry, the address stays held while it runs, and stop shuts it
// down.
func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(7)
	addr, stop, err := r.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	for path, want := range map[string]string{
		"/metrics":    "served_total 7",
		"/debug/vars": `"served_total":7`,
	} {
		if out, err := get(path); err != nil || !strings.Contains(out, want) {
			t.Errorf("%s: %v, missing %q in:\n%s", path, err, want, out)
		}
	}
	if _, _, err := r.ServeMetrics(addr.String()); err == nil {
		t.Fatal("a second server bound the address the first one holds")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := get("/metrics"); err == nil {
		t.Fatal("the endpoint still answers after stop")
	}
}

func TestVarsAndExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(5)
	r.Gauge("g", "").Set(6)
	r.Histogram("h", "", time.Millisecond).Observe(time.Microsecond)
	vars := r.Snapshot().Vars()
	if vars["c"] != uint64(5) || vars["g"] != int64(6) {
		t.Fatalf("vars: %v", vars)
	}
	hm, ok := vars["h"].(map[string]any)
	if !ok || hm["count"] != uint64(1) {
		t.Fatalf("histogram var: %v", vars["h"])
	}
	// Publishing twice must not panic (expvar forbids duplicates).
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry")
}

// TestHotPathAllocFree pins the metric write path and the no-op sink
// dispatch to zero heap allocations — the contract that lets emitters
// instrument their slow paths unconditionally and their hot paths keep
// the zero-alloc guarantee.
func TestHotPathAllocFree(t *testing.T) {
	var c Counter
	var g Gauge
	h := MustHistogram()
	var sink Sink = NopSink{}
	if a := testing.AllocsPerRun(200, func() { c.Add(1) }); a != 0 {
		t.Errorf("Counter.Add allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() { g.Set(3) }); a != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() { h.Observe(time.Millisecond) }); a != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		sink.RecoveryEnd("data", 1, 2, true, time.Millisecond)
		sink.ScrubPass(8, true, 0, time.Millisecond)
	}); a != 0 {
		t.Errorf("NopSink dispatch allocates %.1f/op", a)
	}
}

// TestHistogramQuantileAndCountLE pins the SLO primitives: CountLE is
// exact on bucket boundaries and conservative elsewhere, Quantile
// interpolates inside the containing bucket and saturates at the
// largest finite bound.
func TestHistogramQuantileAndCountLE(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", time.Millisecond, 2*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 98; i++ {
		h.Observe(500 * time.Microsecond) // bucket (0, 1ms]
	}
	h.Observe(5 * time.Millisecond)  // bucket (2ms, 10ms]
	h.Observe(50 * time.Millisecond) // overflow
	s := r.Snapshot().Histogram("lat")

	if n, exact := s.CountLE(2 * time.Millisecond); n != 98 || !exact {
		t.Fatalf("CountLE(2ms) = %d exact=%v, want 98 exact", n, exact)
	}
	if n, exact := s.CountLE(3 * time.Millisecond); n != 98 || exact {
		t.Fatalf("CountLE(3ms) = %d exact=%v, want 98 inexact", n, exact)
	}
	if n, _ := s.CountLE(10 * time.Millisecond); n != 99 {
		t.Fatalf("CountLE(10ms) = %d, want 99", n)
	}
	// p50 lands inside the first bucket; p99 in (2ms,10ms]; p100 in the
	// overflow bucket saturates at the last finite bound.
	if q := s.Quantile(0.50); q <= 0 || q > time.Millisecond {
		t.Fatalf("p50 = %v, want inside (0, 1ms]", q)
	}
	if q := s.Quantile(0.99); q <= 2*time.Millisecond || q > 10*time.Millisecond {
		t.Fatalf("p99 = %v, want inside (2ms, 10ms]", q)
	}
	if q := s.Quantile(1.0); q != 10*time.Millisecond {
		t.Fatalf("p100 = %v, want saturation at 10ms", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile not zero")
	}
}

func TestWithPrefixViews(t *testing.T) {
	root := NewRegistry()
	root.Counter("global", "").Add(1)
	s0 := root.WithPrefix("shard0_")
	s1 := root.WithPrefix("shard1_")
	c0 := s0.Counter("hits", "")
	c1 := s1.Counter("hits", "") // same local name, no collision
	s0.Counter("accesses", "")
	c0.Add(5)
	c1.Add(9)

	// Each view snapshots only its own metrics, prefix stripped.
	v0 := s0.Snapshot()
	if got := v0.Counter("hits"); got != 5 {
		t.Fatalf("view hits = %d, want 5", got)
	}
	if _, ok := v0.Counters["global"]; ok {
		t.Fatal("prefixed view leaked a root metric")
	}
	if names := v0.Names(); len(names) != 2 || names[0] != "hits" {
		t.Fatalf("view names = %v", names)
	}

	// The root sees everything fully qualified.
	rs := root.Snapshot()
	if got := rs.Counter("shard0_hits"); got != 5 {
		t.Fatalf("root shard0_hits = %d, want 5", got)
	}
	if got := rs.Counter("shard1_hits"); got != 9 {
		t.Fatalf("root shard1_hits = %d, want 9", got)
	}
	if got := rs.Counter("global"); got != 1 {
		t.Fatalf("root global = %d, want 1", got)
	}

	// Monotonic floors are shared between views: a regression observed
	// through the root must not resurface through the view.
	var src atomic.Uint64
	src.Store(100)
	s1.CounterFunc("mono", "", src.Load)
	_ = root.Snapshot()
	src.Store(40)
	if got := s1.Snapshot().Counter("mono"); got != 100 {
		t.Fatalf("view snapshot regressed to %d", got)
	}

	// Nested prefixes compose.
	s0.WithPrefix("inner_").Counter("x", "").Add(3)
	if got := root.Snapshot().Counter("shard0_inner_x"); got != 3 {
		t.Fatalf("nested prefix counter = %d, want 3", got)
	}
}
