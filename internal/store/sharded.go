package store

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Config assembles a sharded store.
type Config struct {
	// Shards is the number of independent engine instances the address
	// space is striped across (a power of two; zero selects 1). Line
	// addresses are interleaved: line L lands on shard L mod Shards, so
	// sequential lines spread round-robin and no shard owns a hot
	// contiguous region.
	Shards int
	// Cache is the PER-SHARD cache geometry: total capacity is
	// Shards × Sets × Ways lines.
	Cache pcache.Config
	// Resilience is the per-shard engine template. Metrics is the root
	// registry New registers every shard into under a "shard<i>_"
	// prefix, and the store_* aggregates beside them; serve it to read
	// them. Nil selects a private registry that only each shard's
	// Report reads.
	Resilience resilience.Config
	// Scrubber, when non-nil, gives every shard its own background
	// scrubber with this configuration (Start/Stop run them).
	Scrubber *resilience.ScrubberConfig
	// Watchdog, when non-nil, gives every shard its own recovery
	// watchdog with this configuration (Start/Stop run them).
	Watchdog *resilience.WatchdogConfig
}

// shard is one fully independent protection domain: its own cache,
// engine (bank locks, breakers, single-flight table), and optional
// scrubber and watchdog. Nothing here is shared with other shards.
type shard struct {
	engine   *resilience.Engine
	scrubber *resilience.Scrubber
	watchdog *resilience.Watchdog
}

// Sharded stripes line addresses across N independent resilience
// engines. A storm, an open breaker, or a wedged repair on one shard
// is invisible to the others: they share no locks, no breaker state,
// and no scrub or watchdog schedule. All methods are safe for
// concurrent use.
type Sharded struct {
	shards    []*shard
	lineBytes uint64
	shardBits uint
	mask      uint64
	setsPer   int
	banksPer  int
}

// New builds a Shards-way sharded store over one backing. Every shard
// sees the full global address space: its cache addresses are
// contracted (the shard-selector bits dropped) and re-expanded by a
// per-shard backing adapter, so the backing observes exactly the
// addresses the caller used — a 1-shard and an N-shard store over the
// same workload produce identical backing contents.
func New(cfg Config, backing pcache.Backing) (*Sharded, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("store: shards %d must be a power of two", cfg.Shards)
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	root := cfg.Resilience.Metrics
	if root == nil {
		root = obs.NewRegistry()
	}
	s := &Sharded{
		lineBytes: uint64(cfg.Cache.LineBytes),
		shardBits: uint(bitsFor(n)),
		mask:      uint64(n - 1),
		setsPer:   cfg.Cache.Sets,
	}
	for i := 0; i < n; i++ {
		cache, err := pcache.New(cfg.Cache, &shardBacking{
			parent:    backing,
			shard:     uint64(i),
			shardBits: s.shardBits,
			lineBytes: s.lineBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		s.banksPer = cache.NumBanks()
		ecfg := cfg.Resilience
		ecfg.Metrics = root.WithPrefix(fmt.Sprintf("shard%d_", i))
		sh := &shard{engine: resilience.New(cache, ecfg)}
		if cfg.Scrubber != nil {
			sh.scrubber = sh.engine.NewScrubber(*cfg.Scrubber)
		}
		if cfg.Watchdog != nil {
			sh.watchdog = sh.engine.NewWatchdog(*cfg.Watchdog)
		}
		s.shards = append(s.shards, sh)
	}
	s.registerAggregates(root)
	return s, nil
}

// bitsFor returns log2 of a power of two.
func bitsFor(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Start launches every shard's scrubber and watchdog goroutines (those
// configured at construction). Pair with Stop.
func (s *Sharded) Start() {
	for _, sh := range s.shards {
		if sh.scrubber != nil {
			sh.scrubber.Start()
		}
		if sh.watchdog != nil {
			sh.watchdog.Start()
		}
	}
}

// Stop halts every shard's background goroutines and waits for them.
func (s *Sharded) Stop() {
	for _, sh := range s.shards {
		if sh.watchdog != nil {
			sh.watchdog.Stop()
		}
		if sh.scrubber != nil {
			sh.scrubber.Stop()
		}
	}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf maps an address to the shard that owns its line.
func (s *Sharded) ShardOf(addr uint64) int {
	return int((addr / s.lineBytes) & s.mask)
}

// Shard exposes one shard's engine — for inspection (reports, breaker
// state) and fault injection in tests; production traffic should go
// through the Sharded methods, which translate addresses.
func (s *Sharded) Shard(i int) *resilience.Engine { return s.shards[i].engine }

// Locate returns the engine owning addr and addr contracted into that
// shard's local address space — for repair and inspection tooling that
// must reach one shard's cache directly; normal traffic uses the
// Sharded methods, which translate addresses themselves.
func (s *Sharded) Locate(addr uint64) (*resilience.Engine, uint64) {
	return s.shards[s.ShardOf(addr)].engine, s.local(addr)
}

// local contracts a global address to the owning shard's address
// space: the shard-selector bits are dropped from the line number.
func (s *Sharded) local(addr uint64) uint64 {
	line, off := addr/s.lineBytes, addr%s.lineBytes
	return (line>>s.shardBits)*s.lineBytes + off
}

// globalErr rewrites shard-local coordinates inside typed errors into
// the global namespace: array names gain the "shard<i>/" label and
// set/bank indices are offset by the shard's base (set S of shard i
// becomes i×SetsPerShard+S; unknown coordinates, -1, pass through), so
// a caller aggregating errors from every shard can attribute each one
// unambiguously. The rebuilt errors preserve the full errors.Is/As
// chain: the same concrete types are returned, wrapping the same
// sentinels and causes.
func (s *Sharded) globalErr(shard int, err error) error {
	if err == nil {
		return nil
	}
	off := func(v, base int) int {
		if v < 0 {
			return v
		}
		return v + base
	}
	var ue *pcache.UncorrectableError
	if errors.As(err, &ue) {
		return &pcache.UncorrectableError{
			Array: fmt.Sprintf("shard%d/%s", shard, ue.Array),
			Set:   off(ue.Set, shard*s.setsPer),
			Way:   ue.Way,
		}
	}
	var rip *resilience.RecoveryInProgressError
	if errors.As(err, &rip) {
		return &resilience.RecoveryInProgressError{
			Bank:    off(rip.Bank, shard*s.banksPer),
			Array:   fmt.Sprintf("shard%d/%s", shard, rip.Array),
			Set:     off(rip.Set, shard*s.setsPer),
			Way:     rip.Way,
			Rung:    rip.Rung,
			Elapsed: rip.Elapsed,
			Err:     rip.Err,
		}
	}
	return err
}

// batchScratch recycles the router's per-batch working set — the
// per-shard index buckets and the local (address-contracted) op slice —
// so steady-state batch routing allocates nothing per op.
var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

type batchScratch struct {
	groups [][]int
	rops   []pcache.ReadOp
	wops   []pcache.WriteOp
}

// buckets returns n per-shard index buckets, reset and ready to append.
func (sc *batchScratch) buckets(n int) [][]int {
	for len(sc.groups) < n {
		sc.groups = append(sc.groups, nil)
	}
	g := sc.groups[:n]
	for i := range g {
		g[i] = g[i][:0]
	}
	return g
}

// ReadBatch groups ops by owning shard and hands each shard its group
// in one batched call, so the per-bank amortisation composes with
// sharding. Per-op outcomes land in each op's Err field; the return
// value counts ops that failed even after recovery.
func (s *Sharded) ReadBatch(ops []pcache.ReadOp) (failed int) {
	return s.ReadBatchCtx(context.Background(), ops)
}

// ReadBatchCtx is ReadBatch with each shard's recovery work bounded by
// ctx. The context is threaded to every shard independently: a
// deadline abort inside one shard's ladder does not strand the other
// shards' amortised passes — every shard still runs (or, once ctx has
// expired, stamps its ops with the context error), so every op ends
// with a definite outcome.
func (s *Sharded) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int) {
	if len(s.shards) == 1 {
		failed = s.shards[0].engine.ReadBatchCtx(ctx, ops)
		for i := range ops {
			ops[i].Err = s.globalErr(0, ops[i].Err)
		}
		return failed
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	groups := sc.buckets(len(s.shards))
	for i := range ops {
		sh := s.ShardOf(ops[i].Addr)
		groups[sh] = append(groups[sh], i)
	}
	for sh, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		local := sc.rops[:0]
		for _, i := range idxs {
			local = append(local, pcache.ReadOp{Addr: s.local(ops[i].Addr), Dst: ops[i].Dst})
		}
		sc.rops = local[:0]
		failed += s.shards[sh].engine.ReadBatchCtx(ctx, local)
		for j, i := range idxs {
			ops[i].Err = s.globalErr(sh, local[j].Err)
		}
	}
	return failed
}

// WriteBatch groups ops by owning shard and hands each shard its group
// in one batched call. Within a shard, ops keep their relative order,
// so same-address writes land last-wins exactly as issued.
func (s *Sharded) WriteBatch(ops []pcache.WriteOp) (failed int) {
	return s.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx is WriteBatch with each shard's recovery work bounded
// by ctx; the per-shard threading contract matches ReadBatchCtx.
func (s *Sharded) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int) {
	if len(s.shards) == 1 {
		failed = s.shards[0].engine.WriteBatchCtx(ctx, ops)
		for i := range ops {
			ops[i].Err = s.globalErr(0, ops[i].Err)
		}
		return failed
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	groups := sc.buckets(len(s.shards))
	for i := range ops {
		sh := s.ShardOf(ops[i].Addr)
		groups[sh] = append(groups[sh], i)
	}
	for sh, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		local := sc.wops[:0]
		for _, i := range idxs {
			local = append(local, pcache.WriteOp{Addr: s.local(ops[i].Addr), Data: ops[i].Data})
		}
		sc.wops = local[:0]
		failed += s.shards[sh].engine.WriteBatchCtx(ctx, local)
		for j, i := range idxs {
			ops[i].Err = s.globalErr(sh, local[j].Err)
		}
	}
	return failed
}

// Flush writes back every shard's dirty lines. All shards are flushed
// even if some fail; the error joins every shard failure.
func (s *Sharded) Flush() error {
	var errs []error
	for i, sh := range s.shards {
		if err := sh.engine.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, s.globalErr(i, err)))
		}
	}
	return errors.Join(errs...)
}

// FlushCtx is Flush bounded by a context deadline.
func (s *Sharded) FlushCtx(ctx context.Context) error {
	var errs []error
	for i, sh := range s.shards {
		if err := sh.engine.FlushCtx(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, s.globalErr(i, err)))
		}
	}
	return errors.Join(errs...)
}

// Stats sums the per-shard cache counters. Each shard's snapshot is
// coherent and its counters monotonic, so the sums obey the same
// invariants (Hits+Misses ≤ Accesses) any single snapshot does.
func (s *Sharded) Stats() pcache.Stats {
	var out pcache.Stats
	for _, sh := range s.shards {
		st := sh.engine.Stats()
		out.Accesses += st.Accesses
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Writebacks += st.Writebacks
		out.ErrorsRecovered += st.ErrorsRecovered
		out.Uncorrectable += st.Uncorrectable
		out.Bypassed += st.Bypassed
		out.DirtyLinesLost += st.DirtyLinesLost
	}
	return out
}

// registerAggregates registers cross-shard store_* rollups. Outcome
// counters (hits, misses) are registered — hence snapshot-read —
// before the access counter, and clamped to it, so a concurrent
// snapshot can never show more outcomes than accesses.
func (s *Sharded) registerAggregates(r *obs.Registry) {
	sum := func(field func(pcache.Stats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, sh := range s.shards {
				t += field(sh.engine.Stats())
			}
			return t
		}
	}
	r.GaugeFunc("store_shards", "independent shards striping the address space",
		func() int64 { return int64(len(s.shards)) })
	r.CounterFunc("store_hits_total", "cache hits, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Hits }))
	r.CounterFunc("store_misses_total", "cache misses, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Misses }))
	r.CounterFunc("store_accesses_total", "cache accesses, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Accesses }))
	r.CounterFunc("store_writebacks_total", "dirty writebacks, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Writebacks }))
	r.CounterFunc("store_errors_recovered_total", "errors recovered, all shards",
		sum(func(st pcache.Stats) uint64 { return st.ErrorsRecovered }))
	r.CounterFunc("store_uncorrectable_total", "machine-check events, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Uncorrectable }))
	r.CounterFunc("store_bypassed_total", "bypassed accesses, all shards",
		sum(func(st pcache.Stats) uint64 { return st.Bypassed }))
	r.CounterFunc("store_dirty_lines_lost_total", "dirty lines lost, all shards",
		sum(func(st pcache.Stats) uint64 { return st.DirtyLinesLost }))
	r.ClampLE("store_hits_total", "store_accesses_total")
	r.ClampLE("store_misses_total", "store_accesses_total")
}

// SetEventSink installs sink on every shard's engine, which hands it
// each completed scrub sweep. Nil resets to the no-op sink.
func (s *Sharded) SetEventSink(sink obs.Sink) {
	for _, sh := range s.shards {
		sh.engine.SetEventSink(sink)
	}
}

// shardBacking adapts the shared parent backing into one shard's
// contracted address space: global line (L<<shardBits)|shard appears
// to the shard as local line L, so the parent always sees the
// caller's original addresses. The adapter is stateless beyond its
// wiring; concurrency safety is the parent's.
type shardBacking struct {
	parent    pcache.Backing
	shard     uint64
	shardBits uint
	lineBytes uint64
}

func (b *shardBacking) global(addr uint64) uint64 {
	line := addr / b.lineBytes
	return (line<<b.shardBits | b.shard) * b.lineBytes
}

// ReadLine implements pcache.Backing.
func (b *shardBacking) ReadLine(addr uint64) []byte {
	return b.parent.ReadLine(b.global(addr))
}

// WriteLine implements pcache.Backing.
func (b *shardBacking) WriteLine(addr uint64, data []byte) {
	b.parent.WriteLine(b.global(addr), data)
}
