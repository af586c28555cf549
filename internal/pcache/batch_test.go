package pcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBatchMatchesSerial drives the same randomized op sequence
// through a batched cache and a serial twin issuing every op as a batch
// of its own, and demands identical bytes, identical per-op outcomes,
// identical traffic accounting, and identical final backing contents,
// all of them matching a flat byte model of the written span. A quarter of the writes are aligned whole-line writes, and every
// write batch ends with partial writes before and after a whole-line
// write to one line, which must apply in batch order whether the line
// is resident or not.
func TestBatchMatchesSerial(t *testing.T) {
	cfg := Config{Sets: 16, Ways: 2, LineBytes: 64, Banks: 4}
	bb, sb := NewMapBacking(64), NewMapBacking(64)
	batched, serial := MustNew(cfg, bb), MustNew(cfg, sb)
	rng := rand.New(rand.NewSource(7))
	span := uint64(cfg.Sets * cfg.Ways * cfg.LineBytes * 2)
	model := make([]byte, span)

	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(24)
		if rng.Intn(2) == 0 {
			var wops []WriteOp
			write := func(addr uint64, n int) {
				if off := int(addr) % cfg.LineBytes; off+n > cfg.LineBytes {
					n = cfg.LineBytes - off
				}
				data := make([]byte, n)
				rng.Read(data)
				wops = append(wops, WriteOp{Addr: addr, Data: data})
			}
			for range k {
				if rng.Intn(4) == 0 {
					write(rng.Uint64()%span&^uint64(cfg.LineBytes-1), cfg.LineBytes)
				} else {
					write(rng.Uint64()%span, 1+rng.Intn(16))
				}
			}
			base := rng.Uint64() % span &^ uint64(cfg.LineBytes-1)
			write(base+uint64(rng.Intn(cfg.LineBytes)), 1+rng.Intn(16))
			write(base, cfg.LineBytes)
			write(base+uint64(rng.Intn(cfg.LineBytes)), 1+rng.Intn(16))
			sops := slices.Clone(wops)
			if failed := batched.WriteBatch(wops); failed != 0 {
				t.Fatalf("round %d: WriteBatch failed %d ops", round, failed)
			}
			for i := range sops {
				if err := write1(serial, sops[i].Addr, sops[i].Data); err != nil {
					t.Fatalf("round %d: serial write: %v", round, err)
				}
				copy(model[sops[i].Addr:], sops[i].Data)
			}
		} else {
			rops := make([]ReadOp, k)
			for i := range rops {
				addr := rng.Uint64() % span
				n := 1 + rng.Intn(16)
				if off := int(addr) % cfg.LineBytes; off+n > cfg.LineBytes {
					n = cfg.LineBytes - off
				}
				rops[i] = ReadOp{Addr: addr, Dst: make([]byte, n)}
			}
			if failed := batched.ReadBatch(rops); failed != 0 {
				t.Fatalf("round %d: ReadBatch failed %d ops", round, failed)
			}
			for i := range rops {
				want, err := read1(serial, rops[i].Addr, len(rops[i].Dst))
				if err != nil {
					t.Fatalf("round %d: serial read: %v", round, err)
				}
				if !bytes.Equal(rops[i].Dst, want) {
					t.Fatalf("round %d op %d: batch read %x, serial %x at %#x",
						round, i, rops[i].Dst, want, rops[i].Addr)
				}
				if m := model[rops[i].Addr:][:len(want)]; !bytes.Equal(want, m) {
					t.Fatalf("round %d op %d: read %x, model %x at %#x", round, i, want, m, rops[i].Addr)
				}
			}
		}
	}

	// Batching reorders ops across lines, so replacement decisions (and
	// with them the hit/miss split) may differ from serial issue — but
	// traffic accounting and the coherence invariants must agree.
	bst, sst := batched.Stats(), serial.Stats()
	if bst.Accesses != sst.Accesses {
		t.Fatalf("accesses diverged: batch %d, serial %d", bst.Accesses, sst.Accesses)
	}
	if bst.Hits+bst.Misses > bst.Accesses {
		t.Fatalf("incoherent batch stats %+v", bst)
	}
	if bst.Uncorrectable != 0 || bst.Bypassed != 0 {
		t.Fatalf("unexpected slow-path events %+v", bst)
	}
	if err := batched.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := serial.Flush(); err != nil {
		t.Fatal(err)
	}
	for line := uint64(0); line < span/uint64(cfg.LineBytes); line++ {
		b1 := bb.ReadLine(line * uint64(cfg.LineBytes))
		b2 := sb.ReadLine(line * uint64(cfg.LineBytes))
		if !bytes.Equal(b1, b2) {
			t.Fatalf("backing diverged at line %d: %x vs %x", line, b1, b2)
		}
		if m := model[line*uint64(cfg.LineBytes):][:cfg.LineBytes]; !bytes.Equal(b1, m) {
			t.Fatalf("backing line %d holds %x, model %x", line, b1, m)
		}
	}
}

// TestBatchSameLineWriteOrder checks that overlapping writes to one
// line apply in batch order (the stable-sort guarantee).
func TestBatchSameLineWriteOrder(t *testing.T) {
	c, _ := smallCache(t, false)
	ops := []WriteOp{
		{Addr: 0x100, Data: []byte{1, 1, 1, 1}},
		{Addr: 0x101, Data: []byte{2, 2}},
		{Addr: 0x102, Data: []byte{3}},
	}
	if failed := c.WriteBatch(ops); failed != 0 {
		t.Fatalf("failed %d", failed)
	}
	got, err := read1(c, 0x100, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Serial order: {1,1,1,1}, then {2,2} at +1, then {3} at +2.
	if want := []byte{1, 2, 3, 1}; !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestBatchPerOpErrors: invalid spans fail their own op without
// poisoning the rest of the batch.
func TestBatchPerOpErrors(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := write1(c, 0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	ops := []ReadOp{
		{Addr: 60, Dst: make([]byte, 8)}, // crosses a line boundary
		{Addr: 0, Dst: make([]byte, 1)},
		{Addr: 0, Dst: nil}, // zero-size
	}
	if failed := c.ReadBatch(ops); failed != 2 {
		t.Fatalf("failed = %d, want 2", failed)
	}
	if ops[0].Err == nil || ops[2].Err == nil {
		t.Fatalf("bad spans not flagged: %v %v", ops[0].Err, ops[2].Err)
	}
	if ops[1].Err != nil || ops[1].Dst[0] != 0xAB {
		t.Fatalf("good op failed: err=%v dst=%v", ops[1].Err, ops[1].Dst)
	}

	wops := []WriteOp{
		{Addr: 60, Data: make([]byte, 8)},
		{Addr: 8, Data: []byte{0xCD}},
	}
	if failed := c.WriteBatch(wops); failed != 1 {
		t.Fatalf("write failed = %d, want 1", failed)
	}
	got, err := read1(c, 8, 1)
	if err != nil || got[0] != 0xCD {
		t.Fatalf("good write lost: %v %v", got, err)
	}
}

// TestBatchBypassesDecommissionedSet: a fully decommissioned set is
// served through the backing, whole group at once.
func TestBatchBypassesDecommissionedSet(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := write1(c, 0, []byte{0x11, 0x22}); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	c.Decommission(0, 0)
	c.Decommission(0, 1)
	wops := []WriteOp{
		{Addr: 0, Data: []byte{0x33}},
		{Addr: 1, Data: []byte{0x44}},
	}
	if failed := c.WriteBatch(wops); failed != 0 {
		t.Fatalf("write failed %d", failed)
	}
	rops := []ReadOp{
		{Addr: 0, Dst: make([]byte, 1)},
		{Addr: 1, Dst: make([]byte, 1)},
	}
	if failed := c.ReadBatch(rops); failed != 0 {
		t.Fatalf("read failed %d", failed)
	}
	if rops[0].Dst[0] != 0x33 || rops[1].Dst[0] != 0x44 {
		t.Fatalf("bypass reads %x %x", rops[0].Dst, rops[1].Dst)
	}
	if st := c.Stats(); st.Bypassed < 4 {
		t.Fatalf("bypassed = %d, want >= 4", st.Bypassed)
	}
}

// TestBatchAmortizesArrayWork proves the point of the batch path: k
// ops against one line must cost far fewer protected-array word reads
// than k serial ops (one tag probe + one line read-out per line, not
// per op).
func TestBatchAmortizesArrayWork(t *testing.T) {
	const k = 32
	mk := func() *Cache {
		c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, Banks: 1}, NewMapBacking(64))
		if err := write1(c, 0x40, []byte{1}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	arrayReads := func(c *Cache) uint64 {
		da, ta := c.BankArrays(0)
		return da.Stats().Reads + ta.Stats().Reads
	}

	serial := mk()
	base := arrayReads(serial)
	for i := 0; i < k; i++ {
		if _, err := read1(serial, 0x40+uint64(i%56), 8); err != nil {
			t.Fatal(err)
		}
	}
	serialCost := arrayReads(serial) - base

	batched := mk()
	base = arrayReads(batched)
	ops := make([]ReadOp, k)
	for i := range ops {
		ops[i] = ReadOp{Addr: 0x40 + uint64(i%56), Dst: make([]byte, 8)}
	}
	if failed := batched.ReadBatch(ops); failed != 0 {
		t.Fatalf("failed %d", failed)
	}
	batchCost := arrayReads(batched) - base

	if batchCost*2 >= serialCost {
		t.Fatalf("batch read-out not amortized: batch %d array reads vs serial %d", batchCost, serialCost)
	}
}

// TestBatchStatsAccounting pins the hit/miss bookkeeping of a
// miss-then-group-hit batch.
func TestBatchStatsAccounting(t *testing.T) {
	c, _ := smallCache(t, false)
	ops := make([]ReadOp, 4)
	for i := range ops {
		ops[i] = ReadOp{Addr: uint64(i * 8), Dst: make([]byte, 8)}
	}
	if failed := c.ReadBatch(ops); failed != 0 {
		t.Fatalf("failed %d", failed)
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("stats %+v, want accesses=4 misses=1 hits=3", st)
	}
}

// TestLineGroupArrayWork pins the protected-array word traffic of one
// op of each kind on a 4-way, 64 B-line, 1-bank cache, with EDC8 and
// with SECDED: one tag scan per op, one row write and one tag write
// per install, no read-back of an installed line, and no tag rewrite
// for a write hit on a line already dirty. A valid victim adds its
// invalidation tag write and, when dirty, its writeback's row read.
func TestLineGroupArrayWork(t *testing.T) {
	const sets, ways, lineBytes = 16, 4, 64
	addr := func(k int) uint64 { return uint64(k * sets * lineBytes) } // k-th line of set 0
	partial := func(c *Cache, k int) error { return write1(c, addr(k)+8, []byte{1, 2, 3}) }
	whole := func(c *Cache, k int) error { return write1(c, addr(k), make([]byte, lineBytes)) }
	read := func(c *Cache, k int) error { _, err := read1(c, addr(k)+16, 8); return err }
	fill := func(op func(*Cache, int) error) func(*Cache) error {
		return func(c *Cache) error {
			for k := range ways {
				if err := op(c, k); err != nil {
					return err
				}
			}
			return nil
		}
	}
	once := func(op func(*Cache, int) error) func(*Cache) error {
		return func(c *Cache) error { return op(c, 0) }
	}
	// work is one op's array traffic: data reads, data writes, tag
	// reads, tag writes.
	type work struct{ dr, dw, tr, tw uint64 }
	// Each op touches the k-th line of set 0: line 0 for a hit, line
	// ways (never held) for a miss.
	for _, tc := range []struct {
		name  string
		setup func(*Cache) error
		op    func(*Cache, int) error
		k     int
		want  work
	}{
		{"read miss, empty set", nil, read, 0, work{0, 8, 4, 1}},
		{"read miss, clean victim", fill(read), read, ways, work{0, 8, 4, 2}},
		{"read miss, dirty victim", fill(partial), read, ways, work{8, 8, 4, 2}},
		{"partial-write miss, empty set", nil, partial, 0, work{0, 8, 4, 1}},
		{"partial-write miss, dirty victim", fill(partial), partial, ways, work{8, 8, 4, 2}},
		{"whole-line write miss, dirty victim", fill(partial), whole, ways, work{8, 8, 4, 2}},
		{"read hit", once(read), read, 0, work{8, 0, 1, 0}},
		{"write hit, clean line", once(read), partial, 0, work{8, 8, 1, 1}},
		{"write hit, dirty line", once(partial), partial, 0, work{8, 8, 1, 0}},
	} {
		for _, secded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/secded=%v", tc.name, secded), func(t *testing.T) {
				c := MustNew(Config{Sets: sets, Ways: ways, LineBytes: lineBytes, Banks: 1, SECDEDHorizontal: secded}, NewMapBacking(lineBytes))
				if tc.setup != nil {
					if err := tc.setup(c); err != nil {
						t.Fatal(err)
					}
				}
				data, tags := c.BankArrays(0)
				d0, t0 := data.Stats(), tags.Stats()
				if err := tc.op(c, tc.k); err != nil {
					t.Fatal(err)
				}
				d1, t1 := data.Stats(), tags.Stats()
				got := work{d1.Reads - d0.Reads, d1.Writes - d0.Writes, t1.Reads - t0.Reads, t1.Writes - t0.Writes}
				if got != tc.want {
					t.Fatalf("array work (data reads, data writes, tag reads, tag writes) = %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestVictimSkipsDecommissionedWays holds the fill's victim choice to
// the set's enabled ways: the first invalid one, else the one with the
// oldest LRU stamp, even when a decommissioned way is invalid or holds
// an older stamp.
func TestVictimSkipsDecommissionedWays(t *testing.T) {
	const sets, ways = 16, 4
	c := MustNew(Config{Sets: sets, Ways: ways, LineBytes: 64, Banks: 1}, NewMapBacking(64))
	line := func(k int) uint64 { return uint64(k * sets) } // k-th line of set 0
	wayOf := func(l uint64) int {
		_, tags := c.BankArrays(0)
		for w := range ways {
			if v, _ := tags.ReadUint64(0, w); v&tagValidBit != 0 && v>>tagShift == c.tagOf(l) {
				return w
			}
		}
		return -1
	}
	touch := func(k int) {
		t.Helper()
		if _, err := read1(c, line(k)*64, 1); err != nil {
			t.Fatal(err)
		}
	}
	touch(0) // way 0
	touch(1) // way 1
	c.Decommission(0, 1)
	// Ways: 0 valid (stamp 1), 1 decommissioned (stamp 2, now invalid),
	// 2 and 3 invalid. The first enabled invalid way is 2.
	touch(2)
	touch(3)
	for k, want := range []int{0, -1, 2, 3} {
		if got := wayOf(line(k)); got != want {
			t.Fatalf("line %d in way %d, want %d", k, got, want)
		}
	}
	// Every enabled way is valid; re-touching line 0 leaves way 2 the
	// oldest enabled way, though decommissioned way 1's stamp is older.
	touch(0)
	touch(4)
	for k, want := range []int{0, -1, -1, 3, 2} {
		if got := wayOf(line(k)); got != want {
			t.Fatalf("after the eviction, line %d in way %d, want %d", k, got, want)
		}
	}
}

func ExampleCache_ReadBatch() {
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64}, NewMapBacking(64))
	c.WriteBatch([]WriteOp{
		{Addr: 0x00, Data: []byte("alpha")},
		{Addr: 0x40, Data: []byte("bravo")},
	})
	ops := []ReadOp{
		{Addr: 0x00, Dst: make([]byte, 5)},
		{Addr: 0x40, Dst: make([]byte, 5)},
	}
	failed := c.ReadBatch(ops)
	fmt.Println(failed, string(ops[0].Dst), string(ops[1].Dst))
	// Output: 0 alpha bravo
}
