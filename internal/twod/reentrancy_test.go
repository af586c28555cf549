package twod

import (
	"testing"

	"twodcache/internal/ecc"
)

// smallEDCArray builds an 8-row array whose vertical interleave V=4
// puts rows 0 and 4 in the same parity group, so an ambiguous pair of
// flips (same word slot, codeword bits 0 and 8 — the same EDC8 parity
// group, hence the same syndrome column) is guaranteed beyond coverage.
func smallEDCArray(t testing.TB) *Array {
	t.Helper()
	return MustArray(Config{
		Rows: 8, WordsPerRow: 2,
		Horizontal:     ecc.MustEDC(64, 8),
		VerticalGroups: 4,
	})
}

func fillArray(a *Array, seed uint64) {
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < a.Config().WordsPerRow; w++ {
			a.WriteUint64(r, w, seed+uint64(r*13+w*7))
		}
	}
}

// injectBeyondCoverage plants the ambiguous two-row error: both flips
// land in word slot 0 at codeword bits 0 and 8, which share an EDC8
// parity column, in two rows of the same vertical group.
func injectBeyondCoverage(a *Array) {
	wpr := a.Config().WordsPerRow
	a.FlipBit(0, a.Layout().PhysColumn(0, 0)) // row 0, word 0, bit 0
	a.FlipBit(4, 8*wpr)                       // row 4, word 0, bit 8
}

func TestRecoverIdempotentAfterSuccess(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x1111)
	a.FlipBit(2, 5)
	first := a.Recover()
	if !first.Success || first.BitsFlipped == 0 {
		t.Fatalf("first recovery: %+v", first)
	}
	second := a.Recover()
	if !second.Success || second.Mode != RecoveryNone || second.BitsFlipped != 0 {
		t.Fatalf("second recovery not a clean no-op: %+v", second)
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("array not clean after double recovery: %+v", rep)
	}
}

func TestRecoverIdempotentAfterFailure(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x2222)
	injectBeyondCoverage(a)

	first := a.Recover()
	if first.Success || first.Mode != RecoveryFailed {
		t.Fatalf("expected failure, got %+v", first)
	}
	snap := a.SnapshotData()

	// Re-entering recovery on the same damage must neither oscillate nor
	// corrupt further: same verdict, no data mutation.
	second := a.Recover()
	if second.Success || second.Mode != RecoveryFailed {
		t.Fatalf("second recovery changed verdict: %+v", second)
	}
	if !a.SnapshotData().Equal(snap) {
		t.Fatal("failed recovery mutated data on re-entry")
	}
}

func TestPartialFailureLeavesParitySelfConsistent(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x3333)
	injectBeyondCoverage(a)
	// A third, uniquely-solvable error rides along in another group so
	// the recovery is genuinely *partial*: that word gets fixed, the
	// ambiguous pair does not.
	wpr := a.Config().WordsPerRow
	a.FlipBit(1, 3*wpr+1) // row 1 (group 1), word 1, bit 3

	rep := a.Recover()
	if rep.Success || rep.Mode != RecoveryFailed {
		t.Fatalf("expected partial failure, got %+v", rep)
	}
	if rep.BitsFlipped == 0 {
		t.Fatalf("expected the solvable word to be repaired: %+v", rep)
	}

	// Self-consistent, not stale: the parity still reflects *intended*
	// contents, so the residual mismatch pinpoints exactly the surviving
	// damage (the ambiguous pair in group 0) — the solvable word's group
	// must check clean again.
	audit := a.VerifyIntegrity()
	if audit.FaultyWords != 2 {
		t.Fatalf("residual faulty words = %d, want 2 (the ambiguous pair): %+v", audit.FaultyWords, audit)
	}
	if audit.ParityMismatches != 1 {
		t.Fatalf("parity mismatches = %d, want exactly the damaged group", audit.ParityMismatches)
	}

	// The prescribed machine-check reload: ForceWriteUint64 of the
	// affected words, then a residue flush once the group checks clean.
	// The raw-delta ForceWriteUint64 deliberately keeps the pair's error pattern
	// in the group mismatch (instead of a rebuild erasing every other
	// row's recovery information); the flush retires it safely because
	// the group is clean by then.
	a.ForceWriteUint64(0, 0, 0x3333+0)
	a.ForceWriteUint64(4, 0, 0x3333+4*13)
	if n := a.FlushResidualParity(); n != 1 {
		t.Fatalf("flushed %d residual groups, want 1 (the pair's group)", n)
	}
	if audit := a.VerifyIntegrity(); !audit.Clean() {
		t.Fatalf("array not clean after reload: %+v", audit)
	}
}

func TestTryReadDoesNotMutate(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x4444)
	if _, ok := a.TryReadUint64(3, 1); !ok {
		t.Fatal("clean word rejected")
	}
	a.FlipBit(3, 7)
	recBefore := a.Stats().Recoveries
	if _, ok := a.TryReadUint64(3, 1); ok {
		t.Fatal("dirty word accepted")
	}
	if a.Stats().Recoveries != recBefore {
		t.Fatal("TryReadUint64 triggered recovery")
	}
	// The damage is still there for the exclusive path to repair.
	if _, st := a.ReadUint64(3, 1); st != ReadRecovered {
		t.Fatalf("exclusive read status %v", st)
	}
}

func TestCorrectWordRungSemantics(t *testing.T) {
	// SECDED horizontal: a single-bit error is repairable word-locally,
	// without the array-wide recovery march.
	s := MustArray(Config{
		Rows: 8, WordsPerRow: 2,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 4,
	})
	fillArray(s, 0x5555)
	s.FlipBit(2, 0)
	recBefore := s.Stats().Recoveries
	if !s.CorrectWord(2, 0) {
		t.Fatal("SECDED word-level correction failed")
	}
	if s.Stats().Recoveries != recBefore {
		t.Fatal("CorrectWord escalated to full recovery")
	}
	if _, ok := s.TryReadUint64(2, 0); !ok {
		t.Fatal("word still dirty after CorrectWord")
	}
	if rep := s.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("parity disturbed by CorrectWord: %+v", rep)
	}

	// EDC horizontal: detection-only, the rung must report failure.
	e := smallEDCArray(t)
	fillArray(e, 0x6666)
	e.FlipBit(2, 0)
	if e.CorrectWord(2, 0) {
		t.Fatal("EDC claimed a word-level correction")
	}
}

func TestFaultyWordList(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x7777)
	if got := a.FaultyWordList(); len(got) != 0 {
		t.Fatalf("clean array lists faults: %v", got)
	}
	injectBeyondCoverage(a)
	a.Recover() // fails, residue remains
	got := a.FaultyWordList()
	want := map[[2]int]bool{{0, 0}: true, {4, 0}: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("faulty word list %v, want rows 0 and 4 word 0", got)
	}
}
