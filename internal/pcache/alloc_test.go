package pcache

import (
	"encoding/binary"
	"testing"

	"twodcache/internal/obs"
)

// TestHitPathAllocFree pins the cache hit path to zero heap
// allocations: once a line is resident and clean, a 1-op ReadBatch (a
// clean hit) and a 1-op WriteBatch (read-modify-write of a resident
// line) must not allocate. This holds for both the EDC detection-only
// and the SECDED correcting configurations.
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
