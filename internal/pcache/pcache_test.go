package pcache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func smallCache(t testing.TB, secded bool) (*Cache, *MapBacking) {
	t.Helper()
	b := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, SECDEDHorizontal: secded}, b)
	return c, b
}

// read1 reads n bytes at addr as a batch of one.
func read1(c *Cache, addr uint64, n int) ([]byte, error) {
	ops := []ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	c.ReadBatch(ops)
	return ops[0].Dst, ops[0].Err
}

// write1 stores data at addr as a batch of one.
func write1(c *Cache, addr uint64, data []byte) error {
	ops := []WriteOp{{Addr: addr, Data: data}}
	c.WriteBatch(ops)
	return ops[0].Err
}

func TestConfigValidation(t *testing.T) {
	b := NewMapBacking(64)
	bad := []Config{
		{Sets: 0, Ways: 2, LineBytes: 64},
		{Sets: 3, Ways: 2, LineBytes: 64},
		{Sets: 16, Ways: 0, LineBytes: 64},
		{Sets: 16, Ways: 2, LineBytes: 60},
		{Sets: 16, Ways: 2, LineBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, b); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Sets: 16, Ways: 2, LineBytes: 64}, nil); err == nil {
		t.Error("nil backing accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := write1(c, 0x1000, []byte("hello protected world")); err != nil {
		t.Fatal(err)
	}
	got, err := read1(c, 0x1000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello protected world" {
		t.Fatalf("read %q", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestGeometriesRoundTrip stores random lines, half a line per write,
// through caches whose arrays interleave at a degree for every kernel:
// data rows of 1, 8 and 128 words (8, 64 and 1024 B lines) and tag rows
// of 3, 4 and 128 ways. Twice as many lines as the cache holds make
// every write after the first pass a fill plus a dirty eviction; every
// line must read back, and reach the backing after Flush.
func TestGeometriesRoundTrip(t *testing.T) {
	for _, g := range []struct{ ways, lineBytes int }{{3, 64}, {4, 8}, {4, 1024}, {128, 64}} {
		const sets = 4
		back := NewMapBacking(g.lineBytes)
		c := MustNew(Config{Sets: sets, Ways: g.ways, LineBytes: g.lineBytes, Banks: 1}, back)
		rng := rand.New(rand.NewSource(int64(g.ways * g.lineBytes)))
		want := make([][]byte, 2*sets*g.ways)
		h := g.lineBytes / 2
		for i := range want {
			want[i] = make([]byte, g.lineBytes)
			rng.Read(want[i])
			addr := uint64(i * g.lineBytes)
			if err := write1(c, addr, want[i][:h]); err != nil {
				t.Fatalf("ways=%d line=%d: write line %d: %v", g.ways, g.lineBytes, i, err)
			}
			if err := write1(c, addr+uint64(h), want[i][h:]); err != nil {
				t.Fatalf("ways=%d line=%d: write line %d: %v", g.ways, g.lineBytes, i, err)
			}
		}
		for i := range want {
			if got, err := read1(c, uint64(i*g.lineBytes), g.lineBytes); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("ways=%d line=%d: line %d reads %x, %v; want %x", g.ways, g.lineBytes, i, got, err, want[i])
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("ways=%d line=%d: Flush: %v", g.ways, g.lineBytes, err)
		}
		for i := range want {
			if got := back.ReadLine(uint64(i * g.lineBytes)); !bytes.Equal(got, want[i]) {
				t.Fatalf("ways=%d line=%d: backing line %d = %x, want %x", g.ways, g.lineBytes, i, got, want[i])
			}
		}
	}
}

func TestSpanChecks(t *testing.T) {
	c, _ := smallCache(t, false)
	if _, err := read1(c, 60, 8); err == nil {
		t.Fatal("line-crossing read accepted")
	}
	if err := write1(c, 0, make([]byte, 65)); err == nil {
		t.Fatal("oversized write accepted")
	}
	if _, err := read1(c, 0, 0); err == nil {
		t.Fatal("zero-size read accepted")
	}
}

func TestWritebackOnEviction(t *testing.T) {
	c, b := smallCache(t, false)
	// Fill set 0 with three conflicting lines (2 ways).
	stride := uint64(16 * 64)
	if err := write1(c, 0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, stride, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, 2*stride, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writeback on dirty eviction")
	}
	// The evicted line's data must be in the backing store.
	if b.ReadLine(0)[0] != 0xAA {
		t.Fatal("evicted data lost")
	}
	// Re-reading the evicted line refetches it correctly.
	got, err := read1(c, 0, 1)
	if err != nil || got[0] != 0xAA {
		t.Fatalf("refetch: %v %v", got, err)
	}
}

func TestFlush(t *testing.T) {
	c, b := smallCache(t, false)
	for i := 0; i < 8; i++ {
		if err := write1(c, uint64(i)*64, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if b.ReadLine(uint64(i) * 64)[0] != byte(i+1) {
			t.Fatalf("line %d not flushed", i)
		}
	}
	// Second flush is a no-op (no dirty lines).
	wb := c.Stats().Writebacks
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writebacks != wb {
		t.Fatal("clean flush wrote back")
	}
}

func TestTransparentErrorRecoveryInData(t *testing.T) {
	c, _ := smallCache(t, false)
	payload := []byte("precious data that must survive")
	if err := write1(c, 0x2000, payload); err != nil {
		t.Fatal(err)
	}
	// Inject a 16x16 clustered error into the bank holding 0x2000's set.
	da, _ := c.BankArrays(c.BankOf(0))
	for r := 0; r < 16 && r < da.Rows(); r++ {
		for col := 0; col < 16; col++ {
			da.FlipBit(r, col)
		}
	}
	got, err := read1(c, 0x2000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("data corrupted: %q", got)
	}
	if c.Stats().ErrorsRecovered == 0 {
		t.Fatal("recovery not recorded")
	}
}

func TestTransparentErrorRecoveryInTags(t *testing.T) {
	c, _ := smallCache(t, true) // SECDED horizontal: inline tag repair
	if err := write1(c, 0x3000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, ta := c.BankArrays(c.BankOf(0))
	ta.FlipBit(0, 0) // single-bit tag error somewhere in set 0
	got, err := read1(c, 0x3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("tag corruption broke lookup: %v", got)
	}
}

func TestScrub(t *testing.T) {
	c, _ := smallCache(t, false)
	_ = write1(c, 0, []byte{9})
	da, _ := c.BankArrays(c.BankOf(0))
	da.FlipBit(0, 3)
	if !c.Scrub() {
		t.Fatal("scrub failed")
	}
	got, _ := read1(c, 0, 1)
	if got[0] != 9 {
		t.Fatal("scrub lost data")
	}
}

func TestRandomisedAgainstReferenceModel(t *testing.T) {
	// Property: the protected cache, under random accesses AND random
	// single-cell upsets, behaves exactly like a flat byte map.
	rng := rand.New(rand.NewSource(42))
	c, _ := smallCache(t, false)
	ref := map[uint64]byte{}
	const span = 64 * 256 // many lines, some conflicts
	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(span))
		switch rng.Intn(5) {
		case 0, 1:
			val := byte(rng.Intn(256))
			if err := write1(c, addr, []byte{val}); err != nil {
				t.Fatal(err)
			}
			ref[addr] = val
		case 2:
			// Soft error in the data array: at most one flip per
			// currently-clean word, so every upset stays within the
			// horizontal code's guaranteed detection. (Unrestricted
			// accumulation can build undetectable code-valid patterns,
			// which are beyond 2D coverage — the flat-map equivalence
			// asserted here only holds within coverage.)
			da, _ := c.BankArrays(rng.Intn(c.NumBanks()))
			r, col := rng.Intn(da.Rows()), rng.Intn(da.RowBits())
			w, _ := da.Layout().Locate(col)
			if _, ok := da.TryReadUint64(r, w); ok {
				da.FlipBit(r, col)
			}
		default:
			got, err := read1(c, addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != ref[addr] {
				t.Fatalf("i=%d addr=%#x: got %d want %d", i, addr, got[0], ref[addr])
			}
		}
	}
	if c.Stats().ErrorsRecovered == 0 {
		t.Fatal("no recoveries happened — test not exercising errors")
	}
}

func TestMapBacking(t *testing.T) {
	b := NewMapBacking(64)
	if b.ReadLine(0)[5] != 0 {
		t.Fatal("cold line not zeroed")
	}
	d := make([]byte, 64)
	d[5] = 7
	b.WriteLine(0, d)
	d[5] = 9 // caller mutation must not affect the store
	if b.ReadLine(0)[5] != 7 {
		t.Fatal("backing aliased caller slice")
	}
	// A fill's dst is the bank's staging buffer, which still holds the
	// last line it carried: a never-written line must come back as
	// zeroes, not as that line.
	dst := bytes.Repeat([]byte{0xAA}, 64)
	b.ReadLineInto(0x40, dst)
	if !bytes.Equal(dst, make([]byte, 64)) {
		t.Fatalf("ReadLineInto of a never-written line left %x", dst)
	}
	b.ReadLineInto(0, dst)
	if dst[5] != 7 || dst[4] != 0 {
		t.Fatalf("ReadLineInto of a stored line = %x", dst)
	}
}

// decoratedBacking wraps a Backing the way a tracing decorator does: it
// embeds the interface and overrides both methods, which hides the
// wrapped backing's ReadLineInto. It counts the ReadLine calls that
// reach it.
type decoratedBacking struct {
	Backing
	reads int
}

func (d *decoratedBacking) ReadLine(addr uint64) []byte {
	d.reads++
	return d.Backing.ReadLine(addr)
}

func (d *decoratedBacking) WriteLine(addr uint64, data []byte) {
	d.Backing.WriteLine(addr, data)
}

// TestDecoratedBackingSeesEveryFetch holds the cache to one ReadLine
// through a decorator per fetched line — a read miss, a partial-write
// miss and a bypassed set alike — and to none for a whole-line write,
// which overwrites every byte a fetch would bring in. The data that
// crosses the decorator must be right too.
func TestDecoratedBackingSeesEveryFetch(t *testing.T) {
	mem := NewMapBacking(64)
	d := &decoratedBacking{Backing: mem}
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, Banks: 1}, d)
	stored := bytes.Repeat([]byte{0x5A}, 64)
	for line := uint64(0); line < 64; line++ {
		mem.WriteLine(line*64, stored)
	}
	whole := make([]byte, 64)
	for i := range whole {
		whole[i] = byte(i)
	}
	step := func(name string, wantReads int, fn func() error) {
		t.Helper()
		before := d.reads
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := d.reads - before; got != wantReads {
			t.Fatalf("%s: %d ReadLine calls through the decorator, want %d", name, got, wantReads)
		}
	}
	expect := func(addr uint64, want []byte) {
		t.Helper()
		got, err := read1(c, addr, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#x reads %x, want %x", addr, got, want)
		}
	}

	step("read miss", 1, func() error { _, err := read1(c, 0x040, 8); return err })
	step("partial-write miss", 1, func() error { return write1(c, 0x080, []byte{1, 2}) })
	step("whole-line write miss", 0, func() error { return write1(c, 0x0C0, whole) })
	step("whole-line write hit", 0, func() error { return write1(c, 0x040, whole) })
	// Partial writes before and after a whole-line write to a line that
	// misses: batch order holds, and nothing is fetched.
	step("partial, whole, partial miss", 0, func() error {
		ops := []WriteOp{
			{Addr: 0x108, Data: []byte{0xEE, 0xEE}},
			{Addr: 0x100, Data: whole},
			{Addr: 0x110, Data: []byte{0xDD}},
		}
		if c.WriteBatch(ops) != 0 {
			return ops[0].Err
		}
		return nil
	})
	want := append([]byte(nil), whole...)
	want[0x10] = 0xDD
	step("hits", 0, func() error {
		expect(0x0C0, whole)
		expect(0x100, want)
		expect(0x080, append([]byte{1, 2}, stored[2:]...))
		return nil
	})

	// A fully decommissioned set bypasses the cache: reads and partial
	// writes fetch the line, a whole-line write does not.
	c.Decommission(8, 0)
	c.Decommission(8, 1)
	step("bypassed read", 1, func() error { _, err := read1(c, 0x200, 8); return err })
	step("bypassed partial write", 1, func() error { return write1(c, 0x208, []byte{9}) })
	step("bypassed whole-line write", 0, func() error { return write1(c, 0x600, whole) })
	bypassed := append([]byte(nil), stored...)
	bypassed[8] = 9
	expect(0x200, bypassed)
	expect(0x600, whole)

	// The whole-line miss installed dirty lines: a flush writes them
	// back through the decorator.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr, w := range map[uint64][]byte{0x0C0: whole, 0x100: want} {
		if got := mem.ReadLine(addr); !bytes.Equal(got, w) {
			t.Fatalf("backing holds %x at %#x after flush, want %x", got, addr, w)
		}
	}
}

func TestUncorrectableSurfacesAndRepairs(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := write1(c, 0x4000, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt far beyond coverage: a solid block in 0x4000's bank.
	da, _ := c.BankArrays(c.BankOf(0))
	for r := 0; r < 32 && r < da.Rows(); r++ {
		for col := 0; col < 200; col++ {
			da.FlipBit(r, col)
		}
	}
	for r := 0; r < da.Rows(); r++ { // plus a full column, same groups
		da.FlipBit(r, 300)
	}
	sawErr := false
	for addr := uint64(0); addr < 64*64; addr += 64 {
		if _, err := read1(c, addr, 1); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("unexpected error %v", err)
			}
			var ue *UncorrectableError
			if !errors.As(err, &ue) || ue.Array != ArrayData {
				t.Fatalf("error not a located *UncorrectableError: %v", err)
			}
			sawErr = true
			c.Repair(addr)
		}
	}
	if !sawErr {
		t.Skip("corruption happened to stay within coverage")
	}
	if c.Stats().Uncorrectable == 0 {
		t.Fatal("uncorrectable not counted")
	}
	// After repair, the flushed value is intact (it was clean in backing).
	got, err := read1(c, 0x4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("repaired read = %d", got[0])
	}
}
