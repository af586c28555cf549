package store

import (
	"bytes"
	"testing"

	"twodcache/internal/pcache"
)

// FuzzShardedVsUnsharded is the sharding differential oracle: the same
// op sequence driven through a 1-shard and a 4-shard store (each over
// its own backing) must produce identical read results and, after a
// final flush, byte-identical backings — the shard address contraction
// and batch routing are pure plumbing, invisible to callers. No faults
// are injected, so both runs are deterministic. Writes come in short
// spans and aligned whole lines, alone and mixed in batches; a
// whole-line write that misses installs its line without a fetch, so
// the two stores' fills of one line may differ in kind, never in
// bytes.
//
// Stats are compared only where sharding guarantees equality: access
// counts (one per op on each store). Hit/miss splits legitimately
// differ — per-shard caches replace independently.
func FuzzShardedVsUnsharded(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 2, 3, 0x01, 1, 2, 3})
	f.Add([]byte{0x02, 9, 0, 1, 0x02, 10, 0, 2, 0x02, 11, 0, 3, 0x03, 0, 0, 0})
	seq := make([]byte, 0, 256)
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%4), byte(i*7), byte(i*3), byte(i))
	}
	f.Add(seq)
	f.Add([]byte{
		0x04, 3, 0, 9, 0x00, 3, 8, 2, 0x05, 3, 0, 1, 0x02, 3, 2, 5,
		0x05, 3, 0, 2, 0x02, 3, 4, 6, 0x01, 3, 1, 7, 0x03, 0, 0, 0,
		0x04, 7, 0, 1, 0x04, 71, 0, 2, 0x01, 7, 0, 7,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const lines = 64
		mkStore := func(shards int) (*Sharded, *pcache.MapBacking) {
			backing := pcache.NewMapBacking(64)
			s, err := New(Config{
				Shards: shards,
				Cache:  pcache.Config{Sets: 8, Ways: 2, LineBytes: 64, Banks: 2},
			}, backing)
			if err != nil {
				t.Fatal(err)
			}
			return s, backing
		}
		s1, b1 := mkStore(1)
		s4, b4 := mkStore(4)

		// pending queues a batch round's writes: two bytes at addr, or a
		// whole line when whole.
		type pendingOp struct {
			addr  uint64
			whole bool
		}
		var pending []pendingOp
		runBatch := func() {
			if len(pending) == 0 {
				return
			}
			for _, s := range []*Sharded{s1, s4} {
				wops := make([]pcache.WriteOp, len(pending))
				for i, p := range pending {
					data := []byte{byte(p.addr), byte(i)}
					if p.whole {
						data = bytes.Repeat(data, 32)
					}
					wops[i] = pcache.WriteOp{Addr: p.addr, Data: data}
				}
				if failed := s.WriteBatch(wops); failed != 0 {
					t.Fatalf("%d-shard WriteBatch failed %d ops", s.NumShards(), failed)
				}
			}
			r1 := make([]pcache.ReadOp, len(pending))
			r4 := make([]pcache.ReadOp, len(pending))
			for i, p := range pending {
				r1[i] = pcache.ReadOp{Addr: p.addr, Dst: make([]byte, 2)}
				r4[i] = pcache.ReadOp{Addr: p.addr, Dst: make([]byte, 2)}
			}
			if f1, f4 := s1.ReadBatch(r1), s4.ReadBatch(r4); f1 != 0 || f4 != 0 {
				t.Fatalf("ReadBatch failed: 1-shard %d, 4-shard %d", f1, f4)
			}
			for i := range pending {
				if !bytes.Equal(r1[i].Dst, r4[i].Dst) {
					t.Fatalf("batch read diverged at %#x: %x vs %x", pending[i].addr, r1[i].Dst, r4[i].Dst)
				}
			}
			pending = pending[:0]
		}

		for len(data) >= 4 {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			line := uint64(a) % lines
			off := uint64(b%8) * 8
			addr := line*64 + off
			n := int(c%8) + 1
			switch op % 6 {
			case 0, 4: // write n bytes, or (4) the whole line
				if op%6 == 4 {
					addr, n = line*64, 64
				}
				buf := bytes.Repeat([]byte{c}, n)
				e1 := write1(s1, addr, buf)
				e4 := write1(s4, addr, buf)
				if (e1 == nil) != (e4 == nil) {
					t.Fatalf("write %#x: errors diverged: %v vs %v", addr, e1, e4)
				}
			case 1: // read and compare
				g1, e1 := read1(s1, addr, n)
				g4, e4 := read1(s4, addr, n)
				if (e1 == nil) != (e4 == nil) {
					t.Fatalf("read %#x: errors diverged: %v vs %v", addr, e1, e4)
				}
				if e1 == nil && !bytes.Equal(g1, g4) {
					t.Fatalf("read %#x diverged: %x vs %x", addr, g1, g4)
				}
			case 2, 5: // queue a batch op, or (5) a whole-line one
				p := pendingOp{addr: addr}
				if op%6 == 5 {
					p = pendingOp{addr: line * 64, whole: true}
				}
				pending = append(pending, p)
				if len(pending) == 6 {
					runBatch()
				}
			case 3: // flush both
				runBatch()
				if e1, e4 := s1.Flush(), s4.Flush(); e1 != nil || e4 != nil {
					t.Fatalf("flush: %v / %v", e1, e4)
				}
			}
		}
		runBatch()
		if e1, e4 := s1.Flush(), s4.Flush(); e1 != nil || e4 != nil {
			t.Fatalf("final flush: %v / %v", e1, e4)
		}
		for line := uint64(0); line < lines; line++ {
			l1, l4 := b1.ReadLine(line*64), b4.ReadLine(line*64)
			if !bytes.Equal(l1, l4) {
				t.Fatalf("backing diverged at line %d:\n  1-shard %x\n  4-shard %x", line, l1, l4)
			}
		}
		st1, st4 := s1.Stats(), s4.Stats()
		if st1.Accesses != st4.Accesses {
			t.Fatalf("access counts diverged: %d vs %d", st1.Accesses, st4.Accesses)
		}
		for _, st := range []pcache.Stats{st1, st4} {
			if st.Hits+st.Misses+st.Bypassed != st.Accesses {
				t.Fatalf("incoherent stats: %+v", st)
			}
		}
	})
}
