package pcache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"twodcache/internal/obs"
)

// TestHitPathAllocFree pins the cache's data path to zero heap
// allocations: once a line is resident and clean, a 1-op ReadBatch (a
// clean hit) and a 1-op WriteBatch (read-modify-write of a resident
// line) must not allocate, and neither must the three kinds of miss
// (see missAllocFree). This holds for both the EDC detection-only and
// the SECDED correcting configurations.
func TestHitPathAllocFree(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops items under the race detector,
		// so the pooled batch index scratch allocates by design there.
		// The non-race tier-1 run enforces the zero-alloc contract.
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, secded := range []bool{false, true} {
		name := "EDC8"
		if secded {
			name = "SECDED"
		}
		t.Run(name, func(t *testing.T) {
			c := MustNew(Config{
				Sets: 64, Ways: 4, LineBytes: 64, Banks: 4,
				SECDEDHorizontal: secded,
			}, NewMapBacking(64))
			// The zero-alloc contract must survive full instrumentation:
			// a registered registry.
			reg := obs.NewRegistry()
			c.RegisterMetrics(reg)
			const addr = 0x1040
			seed := make([]byte, 64)
			for i := range seed {
				seed[i] = byte(i * 7)
			}
			if err := write1(c, addr&^63, seed); err != nil {
				t.Fatal(err)
			}
			rop := []ReadOp{{Addr: addr, Dst: make([]byte, 16)}}
			if got := testing.AllocsPerRun(200, func() {
				if c.ReadBatch(rop) != 0 {
					t.Fatal(rop[0].Err)
				}
			}); got != 0 {
				t.Errorf("1-op ReadBatch (clean hit) allocates %.1f/op", got)
			}
			wop := []WriteOp{{Addr: addr, Data: make([]byte, 8)}}
			var x uint64
			if got := testing.AllocsPerRun(200, func() {
				x++
				binary.LittleEndian.PutUint64(wop[0].Data, x)
				if c.WriteBatch(wop) != 0 {
					t.Fatal(wop[0].Err)
				}
			}); got != 0 {
				t.Errorf("1-op WriteBatch (hit) allocates %.1f/op", got)
			}
			// The data must have survived the alloc-counted traffic.
			back, err := read1(c, addr, 8)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint64(back); v != x {
				t.Fatalf("readback %#x != last write %#x", v, x)
			}
			missAllocFree(t, secded)
		})
	}
}

// missAllocFree pins the miss path at zero allocations: a read miss
// whose fill evicts a dirty line, a partial-write miss and a whole-line
// write miss. The first two fetch into the bank's staging buffer; the
// third fetches nothing. Each case runs on a cache whose every way holds
// a dirty line, over a backing that already stores every line the case
// touches (MapBacking allocates the first time a writeback reaches an
// address, by design), and checks that each measured op really missed
// and wrote a dirty victim back.
func missAllocFree(t *testing.T, secded bool) {
	const lineBytes, ways, sets = 64, 4, 64
	whole := make([]byte, lineBytes)
	for i := range whole {
		whole[i] = byte(0xC0 ^ i)
	}
	rop := []ReadOp{{Dst: make([]byte, 16)}}
	pop := []WriteOp{{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	wop := []WriteOp{{Data: whole}}
	for _, tc := range []struct {
		name string
		op   func(c *Cache, addr uint64) error
		want func(line uint64) []byte // the line's bytes after op
	}{
		{"ReadMissDirtyEvict",
			func(c *Cache, addr uint64) error {
				rop[0].Addr = addr + 16
				c.ReadBatch(rop)
				for _, v := range rop[0].Dst {
					if rop[0].Err == nil && v != byte(addr/lineBytes) {
						t.Fatalf("read miss at %#x returned %x", addr, rop[0].Dst)
					}
				}
				return rop[0].Err
			},
			func(line uint64) []byte { return bytes.Repeat([]byte{byte(line)}, lineBytes) }},
		{"PartialWriteMiss",
			func(c *Cache, addr uint64) error {
				pop[0].Addr = addr + 8
				c.WriteBatch(pop)
				return pop[0].Err
			},
			func(line uint64) []byte {
				want := bytes.Repeat([]byte{byte(line)}, lineBytes)
				copy(want[8:], pop[0].Data)
				return want
			}},
		{"WholeLineWriteMiss",
			func(c *Cache, addr uint64) error {
				wop[0].Addr = addr
				c.WriteBatch(wop)
				return wop[0].Err
			},
			func(uint64) []byte { return whole }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := NewMapBacking(lineBytes)
			const capacity = sets * ways
			for line := uint64(0); line < 2*capacity; line++ {
				back.WriteLine(line*lineBytes, bytes.Repeat([]byte{byte(line)}, lineBytes))
			}
			c := MustNew(Config{
				Sets: sets, Ways: ways, LineBytes: lineBytes, Banks: 4,
				SECDEDHorizontal: secded,
			}, back)
			c.RegisterMetrics(obs.NewRegistry())
			for line := uint64(0); line < capacity; line++ {
				if err := write1(c, line*lineBytes+1, []byte{0xEE}); err != nil {
					t.Fatal(err)
				}
			}
			// Lines from capacity on were never cached: each op below
			// misses, and its set's LRU way still holds a dirty line.
			before, line := c.Stats(), uint64(capacity)
			if got := testing.AllocsPerRun(200, func() {
				if err := tc.op(c, line*lineBytes); err != nil {
					t.Fatal(err)
				}
				line++
			}); got != 0 {
				t.Errorf("1-op %s allocates %.1f/op", tc.name, got)
			}
			after := c.Stats()
			n := after.Accesses - before.Accesses
			if m, wb := after.Misses-before.Misses, after.Writebacks-before.Writebacks; m != n || wb != n {
				t.Fatalf("%d ops made %d misses and %d writebacks, want %d of each", n, m, wb, n)
			}
			last := line - 1
			got, err := read1(c, last*lineBytes, lineBytes)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.want(last); !bytes.Equal(got, want) {
				t.Fatalf("line %d reads %x after the op, want %x", last, got, want)
			}
		})
	}
}

// TestMapBackingRewriteAllocFree pins a writeback to an address the
// backing already holds at zero allocations: the stored line is
// overwritten in place. ReadLine still hands out a private copy.
func TestMapBackingRewriteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := NewMapBacking(64)
	line := make([]byte, 64)
	b.WriteLine(0x40, line)
	if got := testing.AllocsPerRun(200, func() {
		line[0]++
		b.WriteLine(0x40, line)
	}); got != 0 {
		t.Errorf("WriteLine (stored address) allocates %.1f/op", got)
	}
	out := b.ReadLine(0x40)
	if out[0] != line[0] {
		t.Fatalf("ReadLine = %#x..., want %#x...", out[0], line[0])
	}
	out[1] = 0xFF
	if b.ReadLine(0x40)[1] != 0 {
		t.Fatal("ReadLine's copy aliases the stored line")
	}
}
