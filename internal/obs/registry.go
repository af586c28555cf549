package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered entry: exactly one of the accessors is set.
type metric struct {
	kind    metricKind
	help    string
	counter func() uint64
	gauge   func() int64
	hist    *Histogram
}

// Registry holds named metrics and produces coherent snapshots. All
// methods are safe for concurrent use; registration is expected at
// setup time, Snapshot at any time.
//
// A Registry is a view over a shared core: WithPrefix derives a view
// that registers and reports under a name prefix, so N independent
// instances of one subsystem (the shards of a sharded store) can share
// a single exportable registry without colliding.
type Registry struct {
	prefix string
	core   *registryCore
}

// registryCore is the state shared by every prefixed view of one
// registry: names are stored fully qualified (prefix included).
type registryCore struct {
	mu      sync.Mutex
	names   []string // registration order
	metrics map[string]*metric
	clamps  [][2]string // {lower, upper}: snapshot enforces lower <= upper
	lastC   map[string]uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{
		metrics: map[string]*metric{},
		lastC:   map[string]uint64{},
	}}
}

// WithPrefix returns a view of the same registry that registers every
// metric as prefix+name. Snapshots taken through the view contain only
// the view's metrics, with the prefix stripped — a subsystem handed a
// prefixed view reads its own metrics back under the names it
// registered, oblivious to the sharing. Snapshots of the parent
// registry contain every view's metrics fully qualified. Prefixes
// nest: r.WithPrefix("a_").WithPrefix("b_") registers under "a_b_".
func (r *Registry) WithPrefix(prefix string) *Registry {
	return &Registry{prefix: r.prefix + prefix, core: r.core}
}

func (r *Registry) register(name string, m *metric) {
	if name == "" {
		panic("obs: empty metric name")
	}
	name = r.prefix + name
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.metrics[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	c.names = append(c.names, name)
	c.metrics[name] = m
}

// Counter registers and returns a new Counter under name. Panics on a
// duplicate name (metric names identify time series; silently merging
// two would corrupt both).
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &metric{kind: kindCounter, help: help, counter: c.Load})
	return c
}

// CounterFunc registers an external monotonic counter read through fn —
// the bridge for subsystems that keep their own atomics (per-bank
// padded counters, array stats) but want to be served by the registry.
// fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &metric{kind: kindCounter, help: help, counter: fn})
}

// Gauge registers and returns a new Gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, &metric{kind: kindGauge, help: help, gauge: g.Load})
	return g
}

// GaugeFunc registers an external gauge read through fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, &metric{kind: kindGauge, help: help, gauge: fn})
}

// Histogram registers and returns a new latency histogram under name;
// empty bounds select DefaultLatencyBounds.
func (r *Registry) Histogram(name, help string, bounds ...time.Duration) *Histogram {
	h := MustHistogram(bounds...)
	r.register(name, &metric{kind: kindHistogram, help: help, hist: h})
	return h
}

// ClampLE declares the invariant counter[lower] <= counter[upper]:
// every snapshot clamps the lower value so the pair never reads
// impossible (a success count exceeding its attempt count, hits
// exceeding accesses). Both names must already be registered counters
// (through this view — the pair is stored fully qualified).
func (r *Registry) ClampLE(lower, upper string) {
	lower, upper = r.prefix+lower, r.prefix+upper
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range [2]string{lower, upper} {
		m, ok := c.metrics[n]
		if !ok || m.kind != kindCounter {
			panic(fmt.Sprintf("obs: ClampLE(%q, %q): %q is not a registered counter", lower, upper, n))
		}
	}
	c.clamps = append(c.clamps, [2]string{lower, upper})
}

// HistogramSnapshot is one histogram's coherent state: Counts[i] is the
// number of observations in (Bounds[i-1], Bounds[i]], with the final
// bucket unbounded. Count always equals the sum of Counts.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []uint64
	Count  uint64
	Sum    time.Duration
}

// Mean returns the average observation (zero when empty).
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Snapshot reads the histogram's buckets into a coherent
// HistogramSnapshot. Count is derived from the loaded buckets, never
// from an independently-read total, so Σ Counts == Count by
// construction. Safe for concurrent use; Registry.Snapshot builds its
// histogram views through this same method, so a subsystem holding a
// bare *Histogram (the cluster hedger deriving its delay from a live
// latency quantile) sees exactly what the registry would export.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		hs.Counts[i] = h.buckets[i].Load()
		hs.Count += hs.Counts[i]
	}
	hs.Sum = time.Duration(h.sum.Load())
	return hs
}

// CountLE returns how many observations are known to be <= bound.
// exact reports whether bound coincides with a bucket boundary; when it
// does not, the count is the conservative lower estimate from the last
// boundary at or below bound. SLO checks should therefore build their
// histogram with the budget as an explicit bound (see cmd/soak).
func (h HistogramSnapshot) CountLE(bound time.Duration) (n uint64, exact bool) {
	for i, b := range h.Bounds {
		if b > bound {
			return n, false
		}
		n += h.Counts[i]
		if b == bound {
			return n, true
		}
	}
	return n, false
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the containing bucket — a display aid, not an
// SLO primitive (use CountLE against an exact bound for pass/fail
// decisions). Observations in the overflow bucket report the largest
// finite bound: the histogram cannot resolve beyond it. Zero when
// empty.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Nearest-rank floor: a non-empty sample's quantile is at least its
	// smallest observation, so the rank is at least 1. Without the floor,
	// q=0 against an empty first bucket would answer Bounds[0] — a bucket
	// no observation ever landed in.
	rank := q * float64(h.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, b := range h.Bounds {
		c := float64(h.Counts[i])
		if cum+c >= rank {
			// c > 0 here: the loop only reaches bucket i with cum < rank,
			// so an empty bucket can never satisfy cum+c >= rank.
			lo := time.Duration(0)
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - cum) / c
			return lo + time.Duration(frac*float64(b-lo))
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a coherent point-in-time view of a registry: all declared
// cross-counter invariants hold and counters never regress between
// successive snapshots of the same registry.
type Snapshot struct {
	names      []string // registration order, for deterministic export
	help       map[string]string
	kinds      map[string]metricKind
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns a counter value by name (zero if absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge value by name (zero if absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram snapshot by name (zero value if absent).
func (s *Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// Names returns the metric names in registration order.
func (s *Snapshot) Names() []string { return append([]string(nil), s.names...) }

// Snapshot reads every metric under the registry lock and applies the
// coherence rules (see the package comment): ClampLE invariants first,
// then monotonic clamping against the previous snapshot. Safe for
// concurrent use; snapshots serialise against each other but never
// block metric writers.
//
// On a WithPrefix view, only metrics registered through that view are
// read, and names appear with the prefix stripped; clamp invariants
// whose counters fall entirely within the view still apply, and
// monotonic state is shared with every other view of the registry.
func (r *Registry) Snapshot() *Snapshot {
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	p := r.prefix
	s := &Snapshot{
		help:       make(map[string]string, len(c.names)),
		kinds:      make(map[string]metricKind, len(c.names)),
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, full := range c.names {
		if !strings.HasPrefix(full, p) {
			continue
		}
		name := full[len(p):]
		s.names = append(s.names, name)
		m := c.metrics[full]
		s.help[name] = m.help
		s.kinds[name] = m.kind
		switch m.kind {
		case kindCounter:
			s.Counters[name] = m.counter()
		case kindGauge:
			s.Gauges[name] = m.gauge()
		case kindHistogram:
			s.Histograms[name] = m.hist.Snapshot()
		}
	}
	// Rule 2: declared cross-counter invariants.
	for _, cl := range c.clamps {
		if !strings.HasPrefix(cl[0], p) || !strings.HasPrefix(cl[1], p) {
			continue
		}
		lo, up := cl[0][len(p):], cl[1][len(p):]
		if s.Counters[lo] > s.Counters[up] {
			s.Counters[lo] = s.Counters[up]
		}
	}
	// Rule 3: monotonic against the previous snapshot, so rates derived
	// from successive snapshots never go negative. The floor is keyed by
	// fully-qualified name so prefixed and parent views agree.
	for name, v := range s.Counters {
		if prev := c.lastC[p+name]; v < prev {
			s.Counters[name] = prev
		} else {
			c.lastC[p+name] = v
		}
	}
	return s
}
