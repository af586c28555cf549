package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

var testCfg = pcache.Config{Sets: 16, Ways: 2, LineBytes: 64, Banks: 4}

// read1 and write1 issue one op as a batch of one — the store's only
// data path; readCtx1 is read1 bounded by ctx.
func read1(s Store, addr uint64, n int) ([]byte, error) {
	ops := []pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	s.ReadBatch(ops)
	return ops[0].Dst, ops[0].Err
}

func readCtx1(ctx context.Context, s Store, addr uint64, n int) ([]byte, error) {
	ops := []pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	s.ReadBatchCtx(ctx, ops)
	return ops[0].Dst, ops[0].Err
}

// batchWriter is what write1 needs: a Store, or a shard's
// *pcache.Cache for planting state at shard-local addresses.
type batchWriter interface {
	WriteBatch(ops []pcache.WriteOp) (failed int)
}

func write1(s batchWriter, addr uint64, data []byte) error {
	ops := []pcache.WriteOp{{Addr: addr, Data: data}}
	s.WriteBatch(ops)
	return ops[0].Err
}

func newSharded(t *testing.T, shards int) (*Sharded, *pcache.MapBacking) {
	t.Helper()
	backing := pcache.NewMapBacking(testCfg.LineBytes)
	s, err := New(Config{Shards: shards, Cache: testCfg}, backing)
	if err != nil {
		t.Fatal(err)
	}
	return s, backing
}

func TestShardedRoutesByLine(t *testing.T) {
	s, _ := newSharded(t, 4)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	// Line L lands on shard L mod 4.
	for line := uint64(0); line < 16; line++ {
		addr := line*64 + 8
		if got, want := s.ShardOf(addr), int(line%4); got != want {
			t.Fatalf("ShardOf(line %d) = %d, want %d", line, got, want)
		}
	}
	// Writes land on the owning shard only.
	if err := write1(s, 5*64, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if st := s.Shard(1).Stats(); st.Accesses != 1 {
		t.Fatalf("owning shard saw %d accesses", st.Accesses)
	}
	for _, i := range []int{0, 2, 3} {
		if st := s.Shard(i).Stats(); st.Accesses != 0 {
			t.Fatalf("shard %d saw %d accesses for another shard's line", i, st.Accesses)
		}
	}
	got, err := read1(s, 5*64, 1)
	if err != nil || got[0] != 0xAB {
		t.Fatalf("read back %x, %v", got, err)
	}
}

func TestShardedBackingSeesGlobalAddresses(t *testing.T) {
	s, backing := newSharded(t, 4)
	want := map[uint64]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		line := uint64(rng.Intn(64))
		v := byte(rng.Intn(256))
		if err := write1(s, line*64, []byte{v}); err != nil {
			t.Fatal(err)
		}
		want[line] = v
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// After a flush the backing must hold every line at its ORIGINAL
	// global address — the shard address contraction is invisible.
	for line, v := range want {
		if got := backing.ReadLine(line * 64)[0]; got != v {
			t.Fatalf("backing line %d = %#x, want %#x", line, got, v)
		}
	}
}

func TestShardedBatchRouting(t *testing.T) {
	s, _ := newSharded(t, 4)
	const n = 64
	wops := make([]pcache.WriteOp, n)
	for i := range wops {
		wops[i] = pcache.WriteOp{Addr: uint64(i) * 64, Data: []byte{byte(i), byte(i + 1)}}
	}
	if failed := s.WriteBatch(wops); failed != 0 {
		t.Fatalf("WriteBatch failed %d ops", failed)
	}
	rops := make([]pcache.ReadOp, n)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * 64, Dst: make([]byte, 2)}
	}
	if failed := s.ReadBatch(rops); failed != 0 {
		t.Fatalf("ReadBatch failed %d ops", failed)
	}
	for i, op := range rops {
		if op.Err != nil || !bytes.Equal(op.Dst, []byte{byte(i), byte(i + 1)}) {
			t.Fatalf("op %d: dst %x err %v", i, op.Dst, op.Err)
		}
	}
	// The batch reached every shard.
	for i := 0; i < 4; i++ {
		if st := s.Shard(i).Stats(); st.Accesses == 0 {
			t.Fatalf("shard %d saw no batch traffic", i)
		}
	}
}

func TestShardedBatchSameLineOrder(t *testing.T) {
	s, _ := newSharded(t, 4)
	// Same-address writes in one batch must land last-wins.
	ops := []pcache.WriteOp{
		{Addr: 3 * 64, Data: []byte{1}},
		{Addr: 3 * 64, Data: []byte{2}},
		{Addr: 3 * 64, Data: []byte{3}},
	}
	if failed := s.WriteBatch(ops); failed != 0 {
		t.Fatalf("failed %d", failed)
	}
	got, err := read1(s, 3*64, 1)
	if err != nil || got[0] != 3 {
		t.Fatalf("got %x, %v; want 03", got, err)
	}
}

func TestShardedBatchPerOpErrors(t *testing.T) {
	s, _ := newSharded(t, 4)
	ops := []pcache.ReadOp{
		{Addr: 60, Dst: make([]byte, 8)}, // crosses a line boundary
		{Addr: 64, Dst: make([]byte, 1)},
	}
	if failed := s.ReadBatch(ops); failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if ops[0].Err == nil || ops[1].Err != nil {
		t.Fatalf("per-op errors wrong: %v / %v", ops[0].Err, ops[1].Err)
	}
}

func TestShardedStatsAndAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Shards: 2, Cache: testCfg, Resilience: resilience.Config{Metrics: reg}},
		pcache.NewMapBacking(testCfg.LineBytes))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := write1(s, uint64(i)*64, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := read1(s, uint64(i)*64, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Accesses != 80 {
		t.Fatalf("Accesses = %d, want 80", st.Accesses)
	}
	if st.Hits+st.Misses+st.Bypassed != st.Accesses {
		t.Fatalf("incoherent stats: %+v", st)
	}
	if got := s.Shard(0).Stats().Accesses + s.Shard(1).Stats().Accesses; got != st.Accesses {
		t.Fatalf("shard sum %d != aggregate %d", got, st.Accesses)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("store_accesses_total"); got != 80 {
		t.Fatalf("store_accesses_total = %d, want 80", got)
	}
	if snap.Gauge("store_shards") != 2 {
		t.Fatalf("store_shards = %d", snap.Gauge("store_shards"))
	}
	if snap.Counter("store_hits_total") > snap.Counter("store_accesses_total") {
		t.Fatal("aggregate hits exceed accesses")
	}
	// Per-shard metrics are present under their prefixes and sum to
	// the aggregate.
	perShard := snap.Counter("shard0_pcache_accesses_total") + snap.Counter("shard1_pcache_accesses_total")
	if perShard != 80 {
		names := snap.Names()
		t.Fatalf("per-shard accesses sum %d, want 80 (names: %v)", perShard, names[:min(len(names), 12)])
	}
}

func TestShardedCtxVariants(t *testing.T) {
	s, _ := newSharded(t, 2)
	ctx := context.Background()
	wops := []pcache.WriteOp{{Addr: 64, Data: []byte{0x42}}}
	if failed := s.WriteBatchCtx(ctx, wops); failed != 0 {
		t.Fatal(wops[0].Err)
	}
	got, err := readCtx1(ctx, s, 64, 1)
	if err != nil || got[0] != 0x42 {
		t.Fatalf("ReadBatchCtx: %x, %v", got, err)
	}
	if err := s.FlushCtx(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestShardedStartStop(t *testing.T) {
	backing := pcache.NewMapBacking(testCfg.LineBytes)
	s, err := New(Config{
		Shards:   4,
		Cache:    testCfg,
		Scrubber: &resilience.ScrubberConfig{Interval: time.Millisecond},
		Watchdog: &resilience.WatchdogConfig{Budget: 10 * time.Millisecond},
	}, backing)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 200; i++ {
		if err := write1(s, uint64(i)*64, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the per-shard scrubbers take at least one pass each.
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for i := 0; i < 4; i++ {
			if s.Shard(i).Report().ScrubPasses == 0 {
				all = false
			}
		}
		if all || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	for i := 0; i < 4; i++ {
		if s.Shard(i).Report().ScrubPasses == 0 {
			t.Fatalf("shard %d scrubber never swept", i)
		}
	}
}

func TestShardedRejectsBadConfig(t *testing.T) {
	backing := pcache.NewMapBacking(64)
	if _, err := New(Config{Shards: 3, Cache: testCfg}, backing); err == nil {
		t.Fatal("3 shards accepted")
	}
	if _, err := New(Config{Shards: 2, Cache: pcache.Config{Sets: 5}}, backing); err == nil {
		t.Fatal("bad cache config accepted")
	}
}

func TestShardedZeroShardsIsOne(t *testing.T) {
	backing := pcache.NewMapBacking(64)
	s, err := New(Config{Cache: testCfg}, backing)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if err := write1(s, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	got, err := read1(s, 0, 1)
	if err != nil || got[0] != 9 {
		t.Fatalf("%x, %v", got, err)
	}
}

// ExampleSharded shows the sharded store serving a striped keyspace.
func ExampleSharded() {
	backing := pcache.NewMapBacking(64)
	s, _ := New(Config{
		Shards: 4,
		Cache:  pcache.Config{Sets: 16, Ways: 2, LineBytes: 64},
	}, backing)
	s.WriteBatch([]pcache.WriteOp{{Addr: 0x1000, Data: []byte("striped")}})
	ops := []pcache.ReadOp{{Addr: 0x1000, Dst: make([]byte, 7)}}
	s.ReadBatch(ops)
	fmt.Printf("%s via shard %d of %d\n", ops[0].Dst, s.ShardOf(0x1000), s.NumShards())
	// Output: striped via shard 0 of 4
}
