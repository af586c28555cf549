package twodcache

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPublicErrorInjectionProtection(t *testing.T) {
	wl, _ := Workload("OLTP")
	prot := Protection{L1TwoD: true, PortStealing: true, ErrorEveryCycles: 5000}
	r, err := RunCMP(FatCMP(), prot, wl, 1, 10000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries == 0 {
		t.Fatal("no recovery events recorded")
	}
}

func TestPublicResilientCache(t *testing.T) {
	backing := NewMemoryBacking(64)
	eng, err := NewResilientCache(ProtectedCacheConfig{
		Sets: 32, Ways: 2, LineBytes: 64, Banks: 1,
	}, backing, ResilienceConfig{SpareRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := []BatchWriteOp{{Addr: 0, Data: []byte("resilient")}}
	if eng.WriteBatch(w) != 0 {
		t.Fatal(w[0].Err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	// Plant the guaranteed beyond-coverage pair (rows 0 and 32 share a
	// vertical group; codeword bits 0 and 8 share an EDC8 parity
	// column) and let the ladder absorb it: the read must survive.
	w = []BatchWriteOp{{Addr: 16 * 64, Data: []byte{9}}}
	if eng.WriteBatch(w) != 0 {
		t.Fatal(w[0].Err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	da, _ := eng.Cache().BankArrays(0)
	da.FlipBit(0, da.Layout().PhysColumn(0, 0))
	da.FlipBit(32, da.Layout().PhysColumn(0, 8))

	r := []BatchReadOp{{Addr: 0, Dst: make([]byte, 9)}}
	if eng.ReadBatch(r) != 0 || string(r[0].Dst) != "resilient" {
		t.Fatalf("read through ladder: %q %v", r[0].Dst, r[0].Err)
	}
	rep := eng.Report()
	if rep.DUEs == 0 || rep.Decommissions == 0 {
		t.Fatalf("ladder never escalated: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty health report")
	}

	s := eng.NewScrubber(ScrubberConfig{})
	s.Sweep()
	if eng.Report().ScrubPasses != 1 {
		t.Fatal("scrub pass not reported")
	}
}

// hookCounts is what the benchmark tracer's sinks accumulate.
type hookCounts struct {
	scrubPasses, recoveries atomic.Int64
}

// storeHook and arrayHook are built like the benchmark tracer's
// storeSink and arraySink (bench/trace.go): embed NopEventSink and
// override one method by value. If a kept EventSink signature drifts,
// the override stops implementing it, everything still compiles, and
// the tracer's scrub_busy_frac and recovery_busy_frac read 0.
type storeHook struct {
	NopEventSink
	n *hookCounts
}

func (h storeHook) ScrubPass(_ int, _ bool, _ int, _ time.Duration) { h.n.scrubPasses.Add(1) }

type arrayHook struct {
	NopEventSink
	n *hookCounts
}

func (h arrayHook) RecoveryEnd(_ string, _, _ int, _ bool, _ time.Duration) {
	h.n.recoveries.Add(1)
}

// TestBenchTracerHooksFire pins the hook contract the benchmark tracer
// relies on: installed the way the benchmark installs them, a bank
// array's Recover reaches the array-level override and a ShardedCache
// scrub sweep reaches the store-level one.
func TestBenchTracerHooksFire(t *testing.T) {
	st, err := NewShardedCache(ShardedCacheConfig{
		Shards:   2,
		Cache:    ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Banks: 4},
		Scrubber: &ScrubberConfig{Interval: time.Millisecond},
	}, NewMemoryBacking(64))
	if err != nil {
		t.Fatal(err)
	}
	var n hookCounts
	st.SetEventSink(storeHook{n: &n})
	for i := 0; i < st.NumShards(); i++ {
		c := st.Shard(i).Cache()
		for b := 0; b < c.NumBanks(); b++ {
			data, tags := c.BankArrays(b)
			data.SetEventSink(arrayHook{n: &n}, "data")
			tags.SetEventSink(arrayHook{n: &n}, "tags")
		}
	}

	st.Shard(1).Cache().WithBankLock(2, func(data, _ *Array) { data.Recover() })
	if got := n.recoveries.Load(); got != 1 {
		t.Fatalf("one Recover reached the array hook %d times, want 1", got)
	}
	if got := n.scrubPasses.Load(); got != 0 {
		t.Fatalf("store hook saw %d scrub passes before any sweep", got)
	}

	st.Start()
	defer st.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for n.scrubPasses.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.scrubPasses.Load() == 0 {
		t.Fatal("no scrub sweep reached the store hook")
	}
	if n.recoveries.Load() < 2 {
		t.Fatal("scrub-driven recoveries did not reach the array hook")
	}
}

func TestPublicUncorrectableTaxonomy(t *testing.T) {
	var err error = &CacheUncorrectableError{Array: "data", Set: 3, Way: 1}
	if !errors.Is(err, ErrCacheUncorrectable) {
		t.Fatal("typed error does not wrap the sentinel")
	}
	var ue *CacheUncorrectableError
	if !errors.As(err, &ue) || ue.Set != 3 || ue.Way != 1 {
		t.Fatalf("errors.As lost the location: %+v", ue)
	}
}
