package twod

import (
	"math/rand"
	"testing"

	"twodcache/internal/ecc"
)

func vsec(t testing.TB) *VSECDEDArray {
	t.Helper()
	return MustVSECDEDArray(256, 4, ecc.MustEDC(64, 8))
}

func TestVSECDEDConstruction(t *testing.T) {
	a := vsec(t)
	// SECDED over 256 rows needs 10 check rows — vs EDC32's 32.
	if a.CheckRows() != 10 {
		t.Fatalf("check rows = %d, want 10", a.CheckRows())
	}
	if _, err := NewVSECDEDArray(0, 4, ecc.MustEDC(64, 8)); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := NewVSECDEDArray(256, 4, nil); err == nil {
		t.Fatal("nil horizontal accepted")
	}
	if _, err := NewVSECDEDArray(256, 4, ecc.MustEDC(128, 8)); err == nil {
		t.Fatal("128-bit data words accepted")
	}
}

func TestVSECDEDWriteReadRoundTrip(t *testing.T) {
	a := vsec(t)
	rng := rand.New(rand.NewSource(1))
	vals := map[[2]int]uint64{}
	for i := 0; i < 400; i++ {
		r, w := rng.Intn(256), rng.Intn(4)
		v := rng.Uint64()
		a.WriteUint64(r, w, v)
		vals[[2]int{r, w}] = v
	}
	for k, v := range vals {
		got, st := a.ReadUint64(k[0], k[1])
		if st != ReadClean || got != v {
			t.Fatalf("read (%d,%d) = %#x/%v", k[0], k[1], got, st)
		}
	}
}

func TestVSECDEDRecoversScatteredErrors(t *testing.T) {
	// One error per column, across arbitrarily many rows — the pattern
	// vertical SECDED handles that interleaved parity of the same
	// storage budget could not.
	a := vsec(t)
	rng := rand.New(rand.NewSource(2))
	for r := 0; r < 256; r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, rng.Uint64())
		}
	}
	golden := a.SnapshotData()
	// 100 errors in 100 distinct columns, random rows.
	cols := rng.Perm(a.RowBits())[:100]
	for _, c := range cols {
		a.FlipBit(rng.Intn(256), c)
	}
	rep := a.Recover()
	if !rep.Success {
		t.Fatalf("recovery failed: %+v", rep)
	}
	if diff := a.SnapshotData().Diff(golden); len(diff) != 0 {
		t.Fatalf("%d residual errors", len(diff))
	}
}

func TestVSECDEDReadTriggersRecovery(t *testing.T) {
	a := vsec(t)
	a.WriteUint64(9, 2, 0xABCD)
	a.FlipBit(9, a.Layout().PhysColumn(2, 5))
	got, st := a.ReadUint64(9, 2)
	if st != ReadRecovered || got != 0xABCD {
		t.Fatalf("read = %#x/%v", got, st)
	}
	if _, st := a.ReadUint64(9, 2); st != ReadClean {
		t.Fatal("error not repaired in storage")
	}
}

func TestVSECDEDFailsOnTallClusters(t *testing.T) {
	// Two errors in the same column defeat the vertical SECDED — the
	// trade-off against interleaved parity the abl-vcode ablation
	// quantifies.
	a := vsec(t)
	a.FlipBit(10, 50)
	a.FlipBit(20, 50)
	rep := a.Recover()
	if rep.Success {
		t.Fatal("double-error column unexpectedly recovered")
	}
	if a.Stats().Uncorrectable == 0 {
		t.Fatal("uncorrectable not counted")
	}
}

func TestVSECDEDUncorrectableReadReturnsStoredWord(t *testing.T) {
	// A read that recovery cannot fix still returns the word's own
	// stored bits, not another word's.
	a := vsec(t)
	val := func(r, w int) uint64 { return uint64(r*4+w) * 0x9E3779B97F4A7C15 }
	for r := 0; r < 256; r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, val(r, w))
		}
	}
	col := a.Layout().PhysColumn(1, 3)
	a.FlipBit(10, col)
	a.FlipBit(20, col)
	got, st := a.ReadUint64(10, 1)
	if want := val(10, 1) ^ 1<<3; st != ReadUncorrectable || got != want {
		t.Fatalf("read = %#x/%v, want %#x/%v", got, st, want, ReadUncorrectable)
	}
}

func TestVSECDEDSingleRowClusterOK(t *testing.T) {
	// A 1x32 burst touches 32 distinct columns once each: correctable.
	a := vsec(t)
	rng := rand.New(rand.NewSource(3))
	for r := 0; r < 256; r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, rng.Uint64())
		}
	}
	golden := a.SnapshotData()
	for c := 100; c < 132; c++ {
		a.FlipBit(77, c)
	}
	rep := a.Recover()
	if !rep.Success {
		t.Fatalf("1x32 burst not recovered: %+v", rep)
	}
	if len(a.SnapshotData().Diff(golden)) != 0 {
		t.Fatal("data not restored")
	}
}

func TestVSECDEDInlineWithSECDEDHorizontal(t *testing.T) {
	a := MustVSECDEDArray(64, 2, ecc.MustSECDED(64))
	a.WriteUint64(3, 1, 42)
	a.FlipBit(3, a.Layout().PhysColumn(1, 7))
	got, st := a.ReadUint64(3, 1)
	if st != ReadCorrectedInline || got != 42 {
		t.Fatalf("read = %#x/%v", got, st)
	}
}

func TestVSECDEDCheckStorageBelowParityVariant(t *testing.T) {
	// The design-point comparison: 10 check rows vs 32 parity rows for
	// the same 256-row bank.
	v := vsec(t)
	if v.CheckRows() >= 32 {
		t.Fatalf("vertical SECDED rows = %d, expected < 32", v.CheckRows())
	}
}
