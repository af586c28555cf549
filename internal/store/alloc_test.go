//go:build !race

// sync.Pool drops items under the race detector, so the pooled batch
// scratch allocates by design there; the non-race run pins the count.

package store

import (
	"bytes"
	"testing"

	"twodcache/internal/pcache"
)

// TestMissPathAllocFree pins the sharded store's miss path at zero
// heap allocations: through a 4-shard router over a MapBacking, a read
// miss whose fill evicts a dirty line, a partial-write miss and a
// whole-line write miss allocate nothing. Each shard's cache fetches
// through its shardBacking, so the adapter must forward the
// MapBacking's in-place ReadLineInto; a fetch through ReadLine
// allocates the line it returns. Every way starts dirty, and the
// backing already stores every line the test touches, so each op
// misses, writes a dirty victim back over a stored line, and the counts
// show it.
func TestMissPathAllocFree(t *testing.T) {
	const lineBytes, shards, sets, ways = 64, 4, 64, 4
	const capacity = shards * sets * ways
	whole := bytes.Repeat([]byte{0xA5}, lineBytes)
	rop := []pcache.ReadOp{{Dst: make([]byte, 16)}}
	pop := []pcache.WriteOp{{Data: []byte{1, 2, 3, 4}}}
	wop := []pcache.WriteOp{{Data: whole}}
	for _, tc := range []struct {
		name string
		op   func(s *Sharded, addr uint64) error
	}{
		{"ReadMissDirtyEvict", func(s *Sharded, addr uint64) error {
			rop[0].Addr = addr
			s.ReadBatch(rop)
			return rop[0].Err
		}},
		{"PartialWriteMiss", func(s *Sharded, addr uint64) error {
			pop[0].Addr = addr + 4
			s.WriteBatch(pop)
			return pop[0].Err
		}},
		{"WholeLineWriteMiss", func(s *Sharded, addr uint64) error {
			wop[0].Addr = addr
			s.WriteBatch(wop)
			return wop[0].Err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backing := pcache.NewMapBacking(lineBytes)
			for line := uint64(0); line < 2*capacity; line++ {
				backing.WriteLine(line*lineBytes, make([]byte, lineBytes))
			}
			s, err := New(Config{
				Shards: shards,
				Cache:  pcache.Config{Sets: sets, Ways: ways, LineBytes: lineBytes, Banks: 4},
			}, backing)
			if err != nil {
				t.Fatal(err)
			}
			for line := uint64(0); line < capacity; line++ {
				if err := write1(s, line*lineBytes, []byte{0xEE}); err != nil {
					t.Fatal(err)
				}
			}
			before, line := s.Stats(), uint64(capacity)
			if got := testing.AllocsPerRun(200, func() {
				if err := tc.op(s, line*lineBytes); err != nil {
					t.Fatal(err)
				}
				line++
			}); got != 0 {
				t.Errorf("1-op %s allocates %.1f/op", tc.name, got)
			}
			after := s.Stats()
			n := after.Accesses - before.Accesses
			if m, wb := after.Misses-before.Misses, after.Writebacks-before.Writebacks; m != n || wb != n {
				t.Fatalf("%d ops made %d misses and %d writebacks, want %d of each", n, m, wb, n)
			}
		})
	}
}
