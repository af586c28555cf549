package pcache

import (
	"errors"
	"sync"
	"testing"
)

// beyondCoverageCache builds a single-bank cache whose data array pairs
// rows 0 and 32 in vertical group 0 (64 rows over V=32), and plants the
// guaranteed-ambiguous error there: codeword bits 0 and 8 share an EDC8
// parity column, so flips at those bits in the same word slot of both
// rows defeat both row-mode and column-mode recovery deterministically.
// Row 0 is set 0 way 0; row 32 is set 16 way 0.
func beyondCoverageCache(t *testing.T) (*Cache, *MapBacking) {
	t.Helper()
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 1}, back)
	if err := write1(c, 0, []byte{0x11}); err != nil { // line 0 → set 0, way 0
		t.Fatal(err)
	}
	if err := write1(c, 16*64, []byte{0x22}); err != nil { // line 16 → set 16, way 0
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))
	return c, back
}

func TestUncorrectableDeterministic(t *testing.T) {
	c, _ := beyondCoverageCache(t)
	_, err := read1(c, 0, 1)
	if err == nil {
		t.Fatal("ambiguous beyond-coverage error went undetected")
	}
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("wrong error: %v", err)
	}
	var ue *UncorrectableError
	if !errors.As(err, &ue) {
		t.Fatalf("not a located *UncorrectableError: %v", err)
	}
	if ue.Array != ArrayData || ue.Set != 0 || ue.Way != 0 {
		t.Fatalf("wrong location: %+v", ue)
	}
	if c.Stats().Uncorrectable == 0 {
		t.Fatal("DUE not counted")
	}
}

func TestDecommissionYieldsUsableSmallerCache(t *testing.T) {
	c, _ := beyondCoverageCache(t)
	if _, err := read1(c, 0, 1); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected DUE, got %v", err)
	}
	epochBefore := c.LossEpoch(0)

	// Degrade: retire the failed way. The line was flushed, so no dirty
	// data is lost; the address survives via refetch into another way.
	if lost := c.Decommission(0, 0); lost {
		t.Fatal("clean line reported as lost dirty data")
	}
	if c.LossEpoch(0) == epochBefore {
		t.Fatal("decommission did not advance the loss epoch")
	}
	if c.DisabledWays() != 1 {
		t.Fatalf("disabled ways = %d", c.DisabledWays())
	}
	got, err := read1(c, 0, 1)
	if err != nil || got[0] != 0x11 {
		t.Fatalf("refetch after decommission: %v %v", got, err)
	}

	// The partner row of the ambiguous pair (set 16) still carries its
	// half of the damage; its DUE surfaces independently and the same
	// degrade path retires it too.
	if _, err := read1(c, 16*64, 1); err != nil {
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("unexpected error %v", err)
		}
		c.Decommission(16, 0)
	}
	got, err = read1(c, 16*64, 1)
	if err != nil || got[0] != 0x22 {
		t.Fatalf("set 16 after degrade: %v %v", got, err)
	}

	// The shrunken cache keeps working across its whole address space.
	for l := uint64(0); l < 64; l++ {
		if err := write1(c, l*64, []byte{byte(l + 1)}); err != nil {
			t.Fatalf("line %d write: %v", l, err)
		}
	}
	for l := uint64(0); l < 64; l++ {
		got, err := read1(c, l*64, 1)
		if err != nil || got[0] != byte(l+1) {
			t.Fatalf("line %d read: %v %v", l, got, err)
		}
	}
}

func TestFullyDecommissionedSetBypasses(t *testing.T) {
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64}, back)
	c.Decommission(3, 0)
	c.Decommission(3, 1)

	addr := uint64(3 * 64) // line 3 → set 3
	if err := write1(c, addr, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	// The write went straight through to backing.
	if back.ReadLine(addr)[0] != 0x5A {
		t.Fatal("bypassed write not in backing store")
	}
	got, err := read1(c, addr, 1)
	if err != nil || got[0] != 0x5A {
		t.Fatalf("bypassed read: %v %v", got, err)
	}
	if c.Stats().Bypassed < 2 {
		t.Fatalf("bypasses not counted: %+v", c.Stats())
	}

	// Other sets are unaffected.
	if err := write1(c, 4*64, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	if got, err := read1(c, 4*64, 1); err != nil || got[0] != 0x77 {
		t.Fatalf("neighbour set: %v %v", got, err)
	}

	// Re-enabling restores normal caching for the set.
	c.Reenable(3, 0)
	c.Reenable(3, 1)
	if got, err := read1(c, addr, 1); err != nil || got[0] != 0x5A {
		t.Fatalf("after re-enable: %v %v", got, err)
	}
	if c.Stats().Hits == 0 {
		t.Fatal("no hits recorded")
	}
}

func TestDecommissionDirtyLineCountsLoss(t *testing.T) {
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64}, back)
	if err := write1(c, 0, []byte{0xEE}); err != nil { // dirty, never flushed
		t.Fatal(err)
	}
	// Find which way holds line 0 by decommissioning both; exactly one
	// carries unflushed dirty data.
	lost := 0
	for way := 0; way < 2; way++ {
		if c.Decommission(0, way) {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("lost-dirty count = %d, want 1", lost)
	}
	if c.Stats().DirtyLinesLost != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
	// The unflushed value is gone: backing still has the old contents.
	if back.ReadLine(0)[0] != 0 {
		t.Fatal("dirty data unexpectedly reached backing")
	}
}

func TestRecoverWordRungAtCacheLevel(t *testing.T) {
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, SECDEDHorizontal: true}, back)
	if err := write1(c, 0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(c.BankOf(0))
	recBefore := da.Stats().Recoveries

	// Single-bit data fault in set 0's line: the word rung fixes it
	// without an array-wide recovery march.
	da.FlipBit(0, 0)
	if !c.RecoverWord(ArrayData, 0, 0) {
		t.Fatal("word rung failed on a SECDED-correctable fault")
	}
	if da.Stats().Recoveries != recBefore {
		t.Fatal("word rung escalated to full recovery")
	}
	got, err := read1(c, 0, 1)
	if err != nil || got[0] != 0xAB {
		t.Fatalf("after word recovery: %v %v", got, err)
	}

	// Tag fault: same rung, tag flavour.
	_, ta := c.BankArrays(c.BankOf(0))
	ta.FlipBit(0, 0)
	if !c.RecoverWord(ArrayTags, 0, 0) {
		t.Fatal("tag word rung failed")
	}
}

func TestScrubBankReportsVictims(t *testing.T) {
	c, _ := beyondCoverageCache(t)
	ok, victims := c.ScrubBank(0)
	if ok {
		t.Fatal("scrub claimed success over an ambiguous error")
	}
	want := map[WayRef]bool{{Set: 0, Way: 0}: true, {Set: 16, Way: 0}: true}
	if len(victims) != 2 || !want[victims[0]] || !want[victims[1]] {
		t.Fatalf("victims %v, want set0/way0 and set16/way0", victims)
	}
	// Decommissioning the victims restores consistency.
	for _, v := range victims {
		c.Decommission(v.Set, v.Way)
	}
	if ok, _ := c.ScrubBank(0); !ok {
		t.Fatal("bank still inconsistent after retiring victims")
	}
}

// TestLossEpochBumpBeforeExpose pins the ordering contract of every
// lossEpochs.Add site (Repair, Decommission — both under the bank
// lock, both before any content is destroyed): no observer may ever
// see reverted content alongside a stale epoch. The check is the soak
// oracle's, run against concurrent wipers: capture the epoch before a
// write; a read that then returns something else is legitimate only if
// the epoch has advanced since. Run under -race this also exercises
// the epoch/wipe memory ordering.
func TestLossEpochBumpBeforeExpose(t *testing.T) {
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 4, Ways: 2, LineBytes: 64, Banks: 1}, back)
	const addr = 0 // line 0 → set 0
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Wiper 1: machine-check repairs of the set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			c.Repair(addr)
		}
	}()
	// Wiper 2: decommission/reenable cycles over the set's ways.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			way := i % 2
			c.Decommission(0, way)
			c.Reenable(0, way)
		}
	}()

	for i := 0; i < 20000; i++ {
		val := byte(i)
		e0 := c.LossEpoch(0)
		if err := write1(c, addr, []byte{val}); err != nil {
			continue // set fully decommissioned at that instant
		}
		got, err := read1(c, addr, 1)
		if err != nil {
			continue
		}
		if got[0] != val && c.LossEpoch(0) == e0 {
			t.Fatalf("iteration %d: content reverted (got %#x want %#x) with the loss epoch unmoved", i, got[0], val)
		}
	}
	close(done)
	wg.Wait()
}
