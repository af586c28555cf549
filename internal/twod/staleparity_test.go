package twod

// Stale vertical parity is the one way the 2D scheme can be tricked
// into *manufacturing* corruption: row-mode recovery XORs the group's
// parity mismatch into a faulty row, so any residue in that mismatch
// that does not belong to the row gets written into it — and if the
// residue happens to be a valid codeword pattern, the forged word
// passes every later check. These tests pin the two defences:
//
//  1. Recover refuses a row-mode delta the horizontal code cannot
//     attribute to the row (rowDeltaPlausible);
//  2. overwriting a word with unrepairable latent damage preserves
//     every group's parity mismatch exactly (delta against the raw
//     stored content): the old error pattern stays represented as a
//     refusable residue, and no other faulty row's vertical recovery
//     information is erased. (This path once rebuilt the parity from
//     the corrupted array instead — which silently destroyed the
//     mismatch of every other faulty row in the bank and let a later
//     column-mode recovery forge words over an incomplete suspect
//     set; see testdata/tornfill-shrunk.trace in internal/replay.)
//  3. a group holding such a residue is tainted: row-mode recovery
//     refuses to replay its mismatch even when the per-word syndrome
//     check passes, because two residues can pair into a code-valid
//     pattern that rides along invisibly (EDC8 syndromes alias mod 8;
//     see testdata/residue-forgery-shrunk.trace);
//  4. column-mode recovery repairs a row only from sound evidence: a
//     sole faulty row's group mismatch (row-mode evidence), or — with
//     a correcting horizontal code only — a GF(2) solve over the own
//     group's columns. Under detection-only EDC, multi-faulty-row
//     groups refuse outright: a same-column pair of errors inside one
//     group cancels out of the vertical parity, so the visible
//     mismatch need not contain the true error at all, and any column
//     that merely aliases the 8-value horizontal syndrome — borrowed
//     from another group or even sitting in the own group's mismatch —
//     forges a globally self-consistent wrong state (see
//     testdata/{cancelpair,crosscluster,hiddenpair}-shrunk.trace).

import (
	"testing"

	"twodcache/internal/ecc"
)

// TestRecoverRefusesStaleParityCrossWord: parity of group 0 takes a
// code-valid two-bit hit in word slot 1 (EDC8 bits 0 and 8 share a
// parity column) while row 0 has an ordinary recoverable single-bit
// error in word slot 0. A trusting row-mode repair would fix word 0
// and silently forge word 1 into a valid-but-wrong codeword; the
// plausibility guard must refuse instead.
func TestRecoverRefusesStaleParityCrossWord(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x4444)
	golden := a.SnapshotData()
	lay := a.Layout()

	a.FlipParityBit(0, lay.PhysColumn(1, 0))
	a.FlipParityBit(0, lay.PhysColumn(1, 8))
	a.FlipBit(0, lay.PhysColumn(0, 3))

	rep := a.Recover()
	if rep.Success {
		t.Fatalf("recovery claimed success over stale parity: %+v", rep)
	}
	// The untouched word must not have been forged: every bit of row 0
	// outside the injected flip must still match the golden snapshot.
	row, want := a.SnapshotData().Row(0), golden.Row(0)
	bad := lay.PhysColumn(0, 3)
	for c := 0; c < lay.RowBits(); c++ {
		if c == bad {
			continue
		}
		if row.Bit(c) != want.Bit(c) {
			t.Fatalf("recovery forged bit %d of row 0 from stale parity", c)
		}
	}
}

// TestWriteOverUncorrectableDoesNotPoisonParity: overwriting a word
// that holds unrepairable latent damage must not destroy any vertical
// recovery information. The new data must read back clean, the group
// mismatch must be preserved exactly (the old error pattern stays as a
// residue; the partner row's error stays represented), and the damage
// that remains elsewhere must stay *detected* — never replayed into
// other rows, never forged clean, by a later recovery.
func TestWriteOverUncorrectableDoesNotPoisonParity(t *testing.T) {
	a := smallEDCArray(t)
	fillArray(a, 0x5555)
	golden := a.SnapshotData()
	injectBeyondCoverage(a) // rows 0 and 4, word 0: ambiguous pair

	if st := a.WriteUint64(0, 0, 0xABCD); st != ReadUncorrectable {
		t.Fatalf("write over latent uncorrectable damage: status %v", st)
	}
	if got, ok := a.TryReadUint64(0, 0); !ok || got != 0xABCD {
		t.Fatalf("overwritten word did not read back clean: ok=%v", ok)
	}
	rep := a.VerifyIntegrity()
	if rep.FaultyWords != 1 {
		t.Fatalf("want exactly row 4's word still faulty, got %d faulty words", rep.FaultyWords)
	}
	// The raw-delta overwrite preserves the group's mismatch — the
	// ambiguous pair's combined pattern is still there, flagged. (The
	// old behaviour rebuilt parity here, reporting 0 mismatches while
	// silently absorbing row 4's error into the parity rows.)
	if rep.ParityMismatches != 1 {
		t.Fatalf("parity mismatches = %d, want the pair's group still flagged", rep.ParityMismatches)
	}

	// A later recovery sees row 4 faulty with a mismatch it cannot
	// attribute to row 4 alone (the residue rides along) — it must
	// refuse, not scribble on any row.
	rec := a.Recover()
	if rec.Success {
		t.Fatalf("recovery claimed success with residual damage: %+v", rec)
	}
	snap := a.SnapshotData()
	for r := 0; r < a.Rows(); r++ {
		if r == 0 || r == 4 {
			continue
		}
		if !snap.Row(r).Equal(golden.Row(r)) {
			t.Fatalf("row %d changed by write/recover of other rows", r)
		}
	}

	// The machine-check reload of the damaged word, plus the residue
	// flush once the group checks clean, restores a fully clean,
	// consistent array.
	a.ForceWriteUint64(4, 0, 0)
	if n := a.FlushResidualParity(); n != 1 {
		t.Fatalf("flushed %d residual groups, want 1", n)
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("array not clean after reloading the damaged word: %+v", rep)
	}
}

// TestRowModeRefusesTaintedResiduePair: two residues in one group can
// pair into a CODE-VALID pattern (EDC8 parity columns alias mod 8:
// bits 0 and 8 share a syndrome), which the per-word plausibility
// check cannot see — it rides along with a genuinely faulty row's
// error and matches that row's syndrome exactly. The residue taint
// must make row-mode recovery refuse the whole group until the
// residues are flushed, and the refusal must not leak into other
// groups.
func TestRowModeRefusesTaintedResiduePair(t *testing.T) {
	a := MustArray(Config{
		Rows: 12, WordsPerRow: 2,
		Horizontal:     ecc.MustEDC(64, 8),
		VerticalGroups: 4, // group 0 = rows 0, 4, 8
	})
	fillArray(a, 0x6060)
	lay := a.Layout()

	// Plant the ambiguous pair (rows 0 and 4, word 0, bits 0 and 8) and
	// overwrite both words: each overwrite leaves its old error pattern
	// as a residue, and together the residues form the code-valid pair.
	injectBeyondCoverage(a)
	if st := a.WriteUint64(0, 0, 0x1111); st != ReadUncorrectable {
		t.Fatalf("first overwrite status %v", st)
	}
	if st := a.WriteUint64(4, 0, 0x2222); st != ReadUncorrectable {
		t.Fatalf("second overwrite status %v", st)
	}

	// A real error lands on row 8 — the group's only faulty row, so
	// row-mode recovery would XOR the full mismatch in. The residue
	// pair has syndrome zero, so the delta's syndrome matches row 8's
	// real error exactly: plausibility alone would forge bits 0 and 8
	// into row 8. A second real error in (untainted) group 1 checks
	// that the refusal stays scoped.
	a.FlipBit(8, lay.PhysColumn(0, 3))
	a.FlipBit(1, lay.PhysColumn(1, 5))
	golden8 := a.SnapshotData().Row(8).Clone()

	rep := a.Recover()
	if rep.Success {
		t.Fatalf("recovery claimed success over a tainted group: %+v", rep)
	}
	if !a.SnapshotData().Row(8).Equal(golden8) {
		t.Fatal("row-mode recovery wrote into the tainted group's faulty row")
	}
	if _, ok := a.TryReadUint64(1, 1); !ok {
		t.Fatal("untainted group's row was not repaired")
	}

	// Reload the damaged word and flush: the taint lifts and the group
	// is fully row-recoverable again.
	a.ForceWriteUint64(8, 0, 0x6060+8*13)
	if n := a.FlushResidualParity(); n != 1 {
		t.Fatalf("flushed %d residual groups, want 1", n)
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("array not clean after flush: %+v", rep)
	}
	a.FlipBit(4, lay.PhysColumn(0, 7))
	if rep := a.Recover(); !rep.Success || rep.Mode != RecoveryRow {
		t.Fatalf("group not recoverable after taint lifted: %+v", rep)
	}
}
