package twod

import (
	"math/rand"
	"testing"

	"twodcache/internal/ecc"
)

// small8kb mirrors the paper's Fig. 3 example: 256x256-bit data array
// organised as 4-way interleaved EDC8-protected 64-bit words with 32
// vertical parity rows. With 4x(72,64) codewords a physical row is 288
// bits wide; the data portion is 256 bits as in the paper.
func small8kb(t testing.TB) *Array {
	t.Helper()
	return MustArray(Config{
		Rows:           256,
		WordsPerRow:    4,
		Horizontal:     ecc.MustEDC(64, 8),
		VerticalGroups: 32,
	})
}

func tiny(t testing.TB, h ecc.HorizontalCode) *Array {
	t.Helper()
	return MustArray(Config{Rows: 32, WordsPerRow: 2, Horizontal: h, VerticalGroups: 8})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, WordsPerRow: 1, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 1},
		{Rows: 8, WordsPerRow: 0, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 1},
		{Rows: 8, WordsPerRow: 1, Horizontal: nil, VerticalGroups: 1},
		{Rows: 8, WordsPerRow: 1, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 0},
		{Rows: 8, WordsPerRow: 1, Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 9},
		{Rows: 8, WordsPerRow: 1, Horizontal: ecc.MustEDC(128, 8), VerticalGroups: 1},
	}
	for i, cfg := range bad {
		if _, err := NewArray(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLayoutMapping(t *testing.T) {
	l := Layout{Rows: 4, WordsPerRow: 4, CodewordBits: 72}
	if l.RowBits() != 288 {
		t.Fatalf("row bits = %d", l.RowBits())
	}
	seen := map[int]bool{}
	for w := 0; w < 4; w++ {
		for b := 0; b < 72; b++ {
			c := l.PhysColumn(w, b)
			if seen[c] {
				t.Fatalf("column collision at %d", c)
			}
			seen[c] = true
			ww, bb := l.Locate(c)
			if ww != w || bb != b {
				t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", c, ww, bb, w, b)
			}
		}
	}
	// Bit-interleaving property: adjacent physical columns belong to
	// different words.
	for c := 0; c+1 < l.RowBits(); c++ {
		w1, _ := l.Locate(c)
		w2, _ := l.Locate(c + 1)
		if w1 == w2 {
			t.Fatalf("columns %d,%d map to same word %d", c, c+1, w1)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(1))
	type wr struct{ r, w int }
	written := map[wr]uint64{}
	for i := 0; i < 500; i++ {
		r, w := rng.Intn(a.Rows()), rng.Intn(4)
		d := randUint64(rng)
		a.WriteUint64(r, w, d)
		written[wr{r, w}] = d
	}
	for k, d := range written {
		got, st := a.ReadUint64(k.r, k.w)
		if st != ReadClean {
			t.Fatalf("read (%d,%d) status %v", k.r, k.w, st)
		}
		if got != d {
			t.Fatalf("read (%d,%d) data mismatch", k.r, k.w)
		}
	}
}

// parityConsistent checks the fundamental invariant: every vertical
// parity row equals the XOR of its group's data rows.
func parityConsistent(a *Array) bool {
	return a.verticalMismatch().PopCount() == 0
}

func TestVerticalParityInvariantAfterWrites(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a.WriteUint64(rng.Intn(a.Rows()), rng.Intn(4), randUint64(rng))
		if i%200 == 0 && !parityConsistent(a) {
			t.Fatalf("parity inconsistent after %d writes", i+1)
		}
	}
	if !parityConsistent(a) {
		t.Fatal("parity inconsistent at end")
	}
}

func TestReadBeforeWriteCounted(t *testing.T) {
	a := small8kb(t)
	a.WriteUint64(0, 0, 0)
	a.WriteUint64(0, 0, 0)
	st := a.Stats()
	if st.Writes != 2 || st.ExtraReads != 2 {
		t.Fatalf("stats = %+v, want 2 writes and 2 extra reads", st)
	}
}

func TestSingleBitErrorRecoveredWithEDC(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(3))
	fillRandom(a, rng)
	want, _ := a.ReadUint64(100, 2)
	// Flip one bit of word 2 in row 100.
	a.FlipBit(100, a.Layout().PhysColumn(2, 17))
	got, st := a.ReadUint64(100, 2)
	if st != ReadRecovered {
		t.Fatalf("status = %v", st)
	}
	if got != want {
		t.Fatal("data not recovered")
	}
	// Array must be fully consistent afterwards.
	if !parityConsistent(a) {
		t.Fatal("parity inconsistent after recovery")
	}
}

func TestSECDEDInlineCorrection(t *testing.T) {
	a := tiny(t, ecc.MustSECDED(64))
	rng := rand.New(rand.NewSource(4))
	fillRandom(a, rng)
	want, _ := a.ReadUint64(5, 1)
	a.FlipBit(5, a.Layout().PhysColumn(1, 30))
	got, st := a.ReadUint64(5, 1)
	if st != ReadCorrectedInline {
		t.Fatalf("status = %v, want inline correction", st)
	}
	if got != want {
		t.Fatal("data wrong after inline correction")
	}
	if a.Stats().Recoveries != 0 {
		t.Fatal("inline correction must not trigger 2D recovery")
	}
	if a.Stats().InlineCorrections != 1 {
		t.Fatalf("inline corrections = %d", a.Stats().InlineCorrections)
	}
	// The cells themselves must have been repaired (self-healing).
	if _, st := a.ReadUint64(5, 1); st != ReadClean {
		t.Fatalf("second read status = %v, want clean", st)
	}
}

func TestWriteOverLatentError(t *testing.T) {
	// A latent error under a write target must not poison the vertical
	// parity: the read-before-write checks and repairs first.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(5))
	fillRandom(a, rng)
	a.FlipBit(50, a.Layout().PhysColumn(1, 3))
	st := a.WriteUint64(50, 1, randUint64(rng))
	if st != ReadRecovered {
		t.Fatalf("write status = %v", st)
	}
	if !parityConsistent(a) {
		t.Fatal("parity poisoned by write over latent error")
	}
}

func TestStatsSnapshot(t *testing.T) {
	a := small8kb(t)
	a.WriteUint64(0, 0, 0)
	a.ReadUint64(0, 0)
	st := a.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func fillRandom(a *Array, rng *rand.Rand) {
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < a.Config().WordsPerRow; w++ {
			a.WriteUint64(r, w, randUint64(rng))
		}
	}
	a.ResetStats()
}

// randUint64 draws a 64-bit data word, one rng.Intn(2) per bit.
func randUint64(rng *rand.Rand) uint64 {
	var v uint64
	for i := 0; i < 64; i++ {
		v |= uint64(rng.Intn(2)) << uint(i)
	}
	return v
}

func TestVerifyIntegrity(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(55))
	fillRandom(a, rng)
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("clean array audits dirty: %+v", rep)
	}
	a.FlipBit(3, 40)
	a.FlipParityBit(7, 100)
	rep := a.VerifyIntegrity()
	if rep.FaultyWords != 1 || rep.ParityMismatches != 2 {
		// The data flip dirties its own group's parity too.
		t.Fatalf("audit: %+v", rep)
	}
	// The audit must not have mutated anything.
	rep2 := a.VerifyIntegrity()
	if rep != rep2 {
		t.Fatal("audit not idempotent")
	}
	// After recovery, the audit is clean again.
	if !a.Recover().Success {
		t.Fatal("recovery failed")
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("post-recovery audit dirty: %+v", rep)
	}
}
