package twod

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twodcache/internal/ecc"
)

// TestPropertyClusterWithinCoverageAlwaysRecovers is the paper's
// coverage contract as a property: any error pattern contained in a
// box of at most V rows by at most n*d physical columns is corrected
// exactly.
func TestPropertyClusterWithinCoverageAlwaysRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	cfg := Config{Rows: 64, WordsPerRow: 4, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 16}
	maxW := 8 * 4 // n*d = 32 physical columns
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustArray(cfg)
		fillRandom(a, rng)
		golden := a.SnapshotData()
		h := 1 + rng.Intn(cfg.VerticalGroups)
		w := 1 + rng.Intn(maxW)
		r0 := rng.Intn(cfg.Rows - h + 1)
		c0 := rng.Intn(a.RowBits() - w + 1)
		// Random non-empty subset of the box.
		flips := 1 + rng.Intn(h*w)
		for i := 0; i < flips; i++ {
			a.FlipBit(r0+rng.Intn(h), c0+rng.Intn(w))
		}
		rep := a.Recover()
		return rep.Success && len(a.SnapshotData().Diff(golden)) == 0 && parityConsistent(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWritesPreserveParity: arbitrary write sequences never
// break the vertical parity invariant, and reads return the last value
// written.
func TestPropertyWritesPreserveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	cfg := Config{Rows: 32, WordsPerRow: 2, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 8}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustArray(cfg)
		shadow := make(map[[2]int]uint64)
		for i := 0; i < 300; i++ {
			r, w := rng.Intn(cfg.Rows), rng.Intn(cfg.WordsPerRow)
			if rng.Intn(3) == 0 {
				d := rng.Uint64()
				a.WriteUint64(r, w, d)
				shadow[[2]int{r, w}] = d
			} else {
				got, st := a.ReadUint64(r, w)
				if st != ReadClean {
					return false
				}
				if got != shadow[[2]int{r, w}] {
					return false
				}
			}
		}
		return parityConsistent(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRecoveryIdempotent: running recovery on an already
// recovered (or clean) array changes nothing.
func TestPropertyRecoveryIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Rows: 32, WordsPerRow: 2, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 8}
		a := MustArray(cfg)
		fillRandom(a, rng)
		a.FlipBit(rng.Intn(32), rng.Intn(a.RowBits()))
		if !a.Recover().Success {
			return false
		}
		snap := a.SnapshotData()
		rep := a.Recover()
		return rep.Mode == RecoveryNone && rep.Success &&
			len(a.SnapshotData().Diff(snap)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySECDEDInlineNeverBreaksParity: inline corrections restore
// intended contents, so the parity invariant survives any single-bit
// soft error plus read.
func TestPropertySECDEDInlineNeverBreaksParity(t *testing.T) {
	cfg := Config{Rows: 32, WordsPerRow: 2, Horizontal: ecc.MustSECDED(64), VerticalGroups: 8}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustArray(cfg)
		fillRandom(a, rng)
		r := rng.Intn(cfg.Rows)
		col := rng.Intn(a.RowBits())
		a.FlipBit(r, col)
		w, _ := a.Layout().Locate(col)
		_, st := a.ReadUint64(r, w)
		return st == ReadCorrectedInline && parityConsistent(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
