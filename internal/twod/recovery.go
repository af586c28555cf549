package twod

import (
	"sync/atomic"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// RecoveryMode identifies which branch of the Fig. 4(b) algorithm
// repaired the array.
type RecoveryMode int

const (
	// RecoveryNone: the scan found nothing to repair.
	RecoveryNone RecoveryMode = iota
	// RecoveryRow: each vertical parity group held at most one faulty
	// row, so every faulty row was reconstructed by XOR-ing the group.
	RecoveryRow
	// RecoveryColumn: multiple faulty rows shared a group (large-scale
	// column failure); faulty columns were located via the vertical
	// code and bits were solved for along the horizontal direction.
	RecoveryColumn
	// RecoveryFailed: the error footprint exceeded 2D coverage.
	RecoveryFailed
)

// String names the recovery mode.
func (m RecoveryMode) String() string {
	switch m {
	case RecoveryNone:
		return "none"
	case RecoveryRow:
		return "row-reconstruction"
	case RecoveryColumn:
		return "column-localisation"
	case RecoveryFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// RecoveryReport summarises one invocation of the BIST-style recovery
// process.
type RecoveryReport struct {
	// Mode is the repair strategy that ran.
	Mode RecoveryMode
	// FaultyWords is the number of words whose horizontal code flagged
	// an error during the scan.
	FaultyWords int
	// BitsFlipped is the number of cell corrections applied.
	BitsFlipped int
	// InlineFixes counts words repaired by the horizontal ECC itself
	// during column-mode recovery (the grey "ECC correct" box of
	// Fig. 4(b)); nonzero only with a correcting horizontal code.
	InlineFixes int
	// ParityRefreshed reports whether the vertical parity rows were
	// rebuilt (they held errors, or row-mode changed intent).
	ParityRefreshed bool
	// ScanReads counts the word reads performed — the dominant term of
	// the recovery latency (comparable to a BIST march, §4).
	ScanReads int
	// Success reports whether the array checks fully clean afterwards.
	Success bool
}

// CyclesEstimate returns a rough latency in array-access cycles,
// dominated by the scan reads plus one write per corrected word.
func (r RecoveryReport) CyclesEstimate() int {
	return r.ScanReads + r.BitsFlipped
}

// recoverImpl is the 2D recovery process (Recover without event
// emission). It implements Fig. 4(b):
//
//  1. March over all rows, checking every word's horizontal code.
//  2. If every vertical group holds at most one faulty row, each faulty
//     row's error pattern equals the group's parity mismatch — XOR it in.
//  3. Otherwise (column-scale failure) locate suspect columns from the
//     vertical mismatch and solve each faulty word's syndrome over the
//     suspect set along the horizontal direction.
//  4. Re-verify; refresh parity rows if the data is clean but parity is
//     stale (errors struck the parity storage itself).
func (a *Array) recoverImpl() RecoveryReport {
	atomic.AddUint64(&a.stats.Recoveries, 1)
	rep := RecoveryReport{}

	faulty, rows := a.scan(&rep)
	rep.FaultyWords = len(faulty)

	mismatch := a.verticalMismatch()

	if len(faulty) == 0 {
		// Data clean. If parity rows disagree they took the hit; rebuild.
		rep.Mode = RecoveryNone
		if mismatch.PopCount() != 0 {
			a.rebuildParity()
			rep.ParityRefreshed = true
		}
		rep.Success = true
		return rep
	}

	// Count faulty rows per vertical group.
	groupCount := a.rec.groupCount
	clear(groupCount)
	columnMode := false
	for _, r := range rows {
		g := a.group(r)
		groupCount[g]++
		columnMode = columnMode || groupCount[g] > 1
	}

	// touched[g] records that this recovery applied repairs to data rows
	// of group g — used below to tell residue flushes apart from wrong
	// repairs when the parity disagrees after verification.
	touched := a.rec.touched
	clear(touched)

	if !columnMode {
		rep.Mode = RecoveryRow
		// Repair rows in ascending order (the scan's): the repairs
		// commute (disjoint rows), but a fixed order keeps replayed
		// recoveries bit- and event-identical to the recorded run.
		for _, r := range rows {
			if a.residual[a.group(r)] {
				// The group's mismatch carries the residue of an
				// overwritten unrepairable word — an error pattern of
				// unknown shape. Even when the per-word syndrome check
				// below passes, residues can pair into a code-valid
				// pattern (EDC8 parity columns alias mod 8) riding
				// along with the row's real error: XOR-ing the
				// mismatch in would then forge a clean-checking wrong
				// word. Refuse; escalation handles the row as an
				// accounted loss.
				continue
			}
			m := mismatch.Row(a.group(r))
			if !a.rowDeltaPlausible(r, m) {
				// The mismatch carries bits the horizontal code cannot
				// attribute to this row's errors: the parity itself is
				// stale or struck. XOR-ing it in could forge a
				// valid-looking word — leave the row for verification
				// to flag rather than guess (Fig. 4(b) step 4).
				continue
			}
			rep.BitsFlipped += m.PopCount()
			a.data.XorRow(r, m)
			touched[a.group(r)] = true
		}
	} else {
		rep.Mode = RecoveryColumn
		if !a.recoverColumns(mismatch, faulty, rows, groupCount, touched, &rep) {
			rep.Mode = RecoveryFailed
		}
	}

	// Verify: every word must now check clean.
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			rep.ScanReads++
			if a.syndromeAt(r, w) != 0 {
				rep.Mode = RecoveryFailed
				rep.Success = false
				atomic.AddUint64(&a.stats.Uncorrectable, 1)
				return rep
			}
		}
	}
	// Data verified clean; restore the parity invariant if anything is
	// left inconsistent (e.g. parity rows themselves were struck).
	if remaining := a.verticalMismatch(); remaining.PopCount() != 0 {
		if rep.InlineFixes > 0 {
			// Inline ECC corrections that leave the vertical parity
			// inconsistent indicate a miscorrection (>1 real error in
			// some word): refuse to mask it.
			rep.Mode = RecoveryFailed
			rep.Success = false
			atomic.AddUint64(&a.stats.Uncorrectable, 1)
			return rep
		}
		for g := 0; g < a.cfg.VerticalGroups; g++ {
			if remaining.Row(g).IsZero() || a.residual[g] || !touched[g] {
				continue
			}
			// This recovery wrote into group g, every word now checks
			// clean, yet the parity still disagrees and no residue
			// explains it: the repairs themselves must be wrong
			// (code-valid garbage). Rebuilding here would bake the
			// forgery into the parity — refuse instead.
			rep.Mode = RecoveryFailed
			rep.Success = false
			atomic.AddUint64(&a.stats.Uncorrectable, 1)
			return rep
		}
		a.rebuildParity()
		rep.ParityRefreshed = true
	}
	rep.Success = true
	atomic.AddUint64(&a.stats.RecoveredWords, uint64(rep.FaultyWords))
	return rep
}

// faultyWord is a word the recovery scan flagged, with its horizontal
// syndrome.
type faultyWord struct {
	r, w int
	syn  uint64
}

// scan marches over the array checking every word's horizontal code.
// It returns the faulty words in row-major order and their distinct
// rows in ascending order, both in the array's recovery scratch (valid
// until the next scan).
func (a *Array) scan(rep *RecoveryReport) (faulty []faultyWord, rows []int) {
	faulty, rows = a.rec.faulty[:0], a.rec.rows[:0]
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			rep.ScanReads++
			if syn := a.syndromeAt(r, w); syn != 0 {
				if len(rows) == 0 || rows[len(rows)-1] != r {
					rows = append(rows, r)
				}
				faulty = append(faulty, faultyWord{r, w, syn})
			}
		}
	}
	a.rec.faulty, a.rec.rows = faulty, rows // keep any grown capacity
	return faulty, rows
}

// rowDeltaPlausible reports whether mismatch m is a credible error
// pattern for row r: every word the horizontal code flags must be
// explained by m's slice (matching syndrome), and every clean word's
// slice must be empty. A failure means the group's parity disagrees
// with the data for reasons beyond this row — applying m would write
// garbage into words that were never faulty. Code-valid garbage
// confined to an already-faulty word is indistinguishable from a real
// error pattern and remains beyond coverage, as in the paper.
func (a *Array) rowDeltaPlausible(r int, m bitvec.Codeword) bool {
	s := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	for w := 0; w < a.cfg.WordsPerRow; w++ {
		// Gather m's interleaved slice for word slot w into scratch.
		a.layout.gather(a.scr.cw, m.Words(), w)
		syn := a.syndromeAt(r, w)
		if syn == 0 {
			if !s.IsZero() {
				return false
			}
			continue
		}
		if a.cfg.Horizontal.SyndromeWords(s) != syn {
			return false
		}
	}
	return true
}

// verticalMismatch returns, as row g, the XOR of group g's stored
// parity row with the parity recomputed from its data rows. With at
// most one faulty row in the group this equals that row's exact error
// pattern. The matrix is the array's recovery scratch, overwritten by
// the next call.
func (a *Array) verticalMismatch() *bitvec.Matrix {
	out := a.rec.mismatch
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		m := out.Row(g)
		m.CopyFrom(a.vpar.Row(g))
		for r := g; r < a.cfg.Rows; r += a.cfg.VerticalGroups {
			m.Xor(a.data.Row(r))
		}
	}
	return out
}

// groupMismatch reports whether group g's stored parity row disagrees
// with its data rows, computed word by word without scratch.
func (a *Array) groupMismatch(g int) bool {
	for i, x := range a.vpar.RowWords(g) {
		for r := g; r < a.cfg.Rows; r += a.cfg.VerticalGroups {
			x ^= a.data.RowWords(r)[i]
		}
		if x != 0 {
			return true
		}
	}
	return false
}

// rebuildGroup recomputes group g's vertical parity row from its data.
func (a *Array) rebuildGroup(g int) {
	p := a.vpar.Row(g)
	p.Zero()
	for r := g; r < a.cfg.Rows; r += a.cfg.VerticalGroups {
		p.Xor(a.data.Row(r))
	}
}

// rebuildParity recomputes all vertical parity rows from the data.
// Every residue is gone afterwards, so the taint flags clear with it;
// callers are responsible for only rebuilding over trustworthy data.
func (a *Array) rebuildParity() {
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		a.rebuildGroup(g)
		a.residual[g] = false
	}
}

// recoverColumns handles large-scale column failures — the branch taken
// when some vertical group holds more than one faulty row.
//
// Evidence discipline: a group's parity mismatch is the XOR of its
// rows' error patterns. With exactly ONE faulty row in the group, the
// mismatch IS that row's pattern — the same hard evidence row mode
// uses, so such rows are repaired here with the full row-mode
// discipline (taint refusal + plausibility). With SEVERAL faulty rows
// the attribution of mismatch columns to rows is underdetermined, and
// under a detection-only horizontal code the per-word syndrome adds
// only an 8-value check that aliases mod 8. Worse, two same-column
// flips inside the group cancel out of the mismatch entirely, so the
// visible columns need not even contain the true error: a "unique"
// GF(2) solution over them can be plain wrong, and the forged state is
// globally self-consistent — clean words, zero mismatch, consistent
// multiplicities — hence undetectable after the fact. The true state
// and the forgery satisfy every observable, so no solver confined to
// the visible evidence is sound. Shrunk storm traces pinning four
// escalating variants of this forgery (cross-group borrowing,
// corroborated borrowing, and same-group aliasing) live in
// internal/replay/testdata/{cancelpair,crosscluster,hiddenpair}-shrunk.trace.
//
// Therefore: under EDC, words in multi-faulty-row groups refuse and
// escalate to an accounted loss (wipe + reload). With a correcting
// horizontal code the per-word evidence is strong enough to keep the
// GF(2) solve (its column space has distance >= 4, so small aliasing
// dependencies do not exist), with the code's own inline correction as
// the fallback (Fig. 4(b)'s grey box).
//
// Config.AssumeClusteredFaults trades this discipline for the paper's
// declared fault model: offline coverage campaigns measuring Fig. 3/4
// claims pool suspect columns across all groups and solve every faulty
// word over the pool, which is sound when errors really are contiguous
// column clusters (recoverColumnsClustered).
func (a *Array) recoverColumns(mismatch *bitvec.Matrix, faulty []faultyWord, rows []int, groupCount []int, touched []bool, rep *RecoveryReport) bool {
	if a.cfg.AssumeClusteredFaults {
		return a.recoverColumnsClustered(mismatch, faulty, touched, rep)
	}
	canInline := a.cfg.Horizontal.CorrectCapability() > 0
	ok := true

	// Pass 1 — rows that are the sole faulty row of their group: repair
	// with row-mode evidence, in ascending order for deterministic
	// replay.
	repairedRow := make(map[int]bool)
	for _, r := range rows {
		g := a.group(r)
		if groupCount[g] != 1 || a.residual[g] {
			continue // shared or tainted: pass 2 handles the row's words
		}
		m := mismatch.Row(g)
		if !a.rowDeltaPlausible(r, m) {
			continue
		}
		rep.BitsFlipped += m.PopCount()
		a.data.XorRow(r, m)
		touched[g] = true
		repairedRow[r] = true
	}

	// Pass 2 — words in multi-faulty-row groups, plus sole rows refused
	// above. Row-major order: per-word repairs touch disjoint cells, so
	// the order is for deterministic replay, not correctness.
	for _, fw := range faulty {
		if repairedRow[fw.r] {
			continue
		}
		g := a.group(fw.r)
		if !canInline || a.residual[g] {
			// Detection-only code (no sound evidence for this word), or
			// the group's mismatch carries an overwritten word's residue
			// (its columns are not trustworthy). Escalation handles the
			// word as an accounted loss; the inline ECC may still fix it
			// in the tainted-group case.
			if !a.tryInline(fw.r, fw.w, canInline, rep) {
				ok = false
			}
			continue
		}
		var cand []int
		for _, c := range mismatch.Row(g).Ones() {
			if ws, b := a.layout.Locate(c); ws == fw.w {
				cand = append(cand, b)
			}
		}
		if !a.solveWord(fw, cand, canInline, touched, rep) {
			ok = false
		}
	}
	return ok
}

// recoverColumnsClustered is the fault-model-trusting column mode
// enabled by Config.AssumeClusteredFaults: suspect columns pooled
// across every untainted group, each faulty word solved over the pool
// (Fig. 4(b) as published). Sound only under the declared clustered
// fault model — see recoverColumns for why arbitrary patterns can
// forge it.
func (a *Array) recoverColumnsClustered(mismatch *bitvec.Matrix, faulty []faultyWord, touched []bool, rep *RecoveryReport) bool {
	suspect := bitvec.New(a.layout.RowBits())
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		if a.residual[g] {
			continue // residue columns are not fault evidence
		}
		suspect.Or(mismatch.Row(g))
	}
	// Group suspect columns by word slot.
	byWord := make(map[int][]int) // word slot -> codeword bit indices
	for _, c := range suspect.Ones() {
		w, b := a.layout.Locate(c)
		byWord[w] = append(byWord[w], b)
	}
	canInline := a.cfg.Horizontal.CorrectCapability() > 0
	ok := true
	// Row-major order: repairs touch disjoint cells, so the order is
	// for deterministic replay, not correctness.
	for _, fw := range faulty {
		if !a.solveWord(fw, byWord[fw.w], canInline, touched, rep) {
			ok = false
		}
	}
	return ok
}

// solveWord repairs faulty word fw from its candidate codeword bits:
// when fw's syndrome has a unique GF(2) solution over the candidates'
// parity columns, it flips the solution's bits; otherwise it falls back
// to the horizontal code's inline correction. It reports whether the
// word was repaired.
func (a *Array) solveWord(fw faultyWord, cand []int, canInline bool, touched []bool, rep *RecoveryReport) bool {
	cols := make([]uint64, len(cand))
	for i, b := range cand {
		cols[i] = a.cfg.Horizontal.ParityColumn(b)
	}
	sel, unique := solveGF2(cols, fw.syn)
	if !unique {
		return a.tryInline(fw.r, fw.w, canInline, rep)
	}
	for i, use := range sel {
		if use {
			a.data.Flip(fw.r, a.layout.PhysColumn(fw.w, cand[i]))
			rep.BitsFlipped++
			touched[a.group(fw.r)] = true
		}
	}
	return true
}

// tryInline falls back to the horizontal ECC's own correction for one
// faulty word — the grey "ECC correct" box of Fig. 4(b). This handles
// column failures invisible to the vertical parity (even flip counts
// in every group), which a correcting code localises per word.
func (a *Array) tryInline(r, w int, canInline bool, rep *RecoveryReport) bool {
	if !canInline {
		return false
	}
	a.extractInto(a.scr.cw, r, w)
	cw := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	res, n := a.cfg.Horizontal.DecodeInPlace(cw)
	if res != ecc.Corrected {
		return false
	}
	a.storeRawWords(r, w, a.scr.cw)
	rep.InlineFixes++
	rep.BitsFlipped += n
	return true
}

// solveGF2 finds x with sum_{i: x_i} cols[i] == target over GF(2).
// It reports the solution and whether it is unique. Duplicate or
// dependent columns make the system ambiguous (unique=false).
func solveGF2(cols []uint64, target uint64) (sel []bool, unique bool) {
	n := len(cols)
	sel = make([]bool, n)
	// Build augmented rows: each column becomes a variable; eliminate
	// to reduced row-echelon over the syndrome-bit equations.
	type eq struct {
		coef uint64 // bit i set => variable i participates
		rhs  bool
	}
	// There are up to 64 syndrome bits; build one equation per bit.
	var eqs []eq
	for bit := 0; bit < 64; bit++ {
		var coef uint64
		for i, c := range cols {
			if c&(1<<uint(bit)) != 0 {
				coef |= 1 << uint(i)
			}
		}
		rhs := target&(1<<uint(bit)) != 0
		if coef == 0 {
			if rhs {
				return nil, false // inconsistent
			}
			continue
		}
		eqs = append(eqs, eq{coef, rhs})
	}
	if n > 64 {
		return nil, false // solver supports up to 64 suspect bits/word
	}
	// Gaussian elimination on variables.
	pivotOf := make([]int, 0, n)
	row := 0
	for v := 0; v < n && row < len(eqs); v++ {
		// Find a row at/after 'row' with variable v.
		p := -1
		for i := row; i < len(eqs); i++ {
			if eqs[i].coef&(1<<uint(v)) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		eqs[row], eqs[p] = eqs[p], eqs[row]
		for i := range eqs {
			if i != row && eqs[i].coef&(1<<uint(v)) != 0 {
				eqs[i].coef ^= eqs[row].coef
				eqs[i].rhs = eqs[i].rhs != eqs[row].rhs
			}
		}
		pivotOf = append(pivotOf, v)
		row++
	}
	// Unique iff every variable got a pivot.
	if len(pivotOf) < n {
		return nil, false
	}
	// Back-substitute (matrix is diagonal on pivots now).
	for i, v := range pivotOf {
		if eqs[i].rhs {
			sel[v] = true
		}
	}
	// Consistency: remaining equations must be 0 = 0.
	for i := len(pivotOf); i < len(eqs); i++ {
		if eqs[i].coef == 0 && eqs[i].rhs {
			return nil, false
		}
	}
	return sel, true
}

// FlushResidualParity rebuilds the vertical parity row of every group
// whose data rows all check clean horizontally but whose stored parity
// disagrees with the data. Such residues are the deliberate leftovers
// of the raw-delta overwrite discipline (writeStaged's uncorrectable
// branch, ForceWriteUint64): when an unrepairable word is overwritten,
// its old error pattern stays in its group's mismatch instead of a full
// parity rebuild erasing every other faulty row's recovery
// information. A lone residue has a nonzero horizontal syndrome and is
// refused by rowDeltaPlausible, but residues left to accumulate can
// combine into a code-valid pattern that a later row-mode repair would
// replay into a genuinely faulty row — which is why residue-carrying
// groups are tainted (row-mode recovery refuses them outright) and why
// wipe paths call this once the damage they were handling is cleared:
// flushing retires the residue and lifts the taint, restoring full
// row-mode recoverability for the group. Groups still containing
// detected faulty words keep their mismatch (and taint) untouched.
// Returns the number of groups flushed. Caller must hold the array's
// external exclusive lock, as for Recover.
func (a *Array) FlushResidualParity() int {
	flushed := 0
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		clean := true
		for r := g; r < a.cfg.Rows && clean; r += a.cfg.VerticalGroups {
			for w := 0; w < a.cfg.WordsPerRow; w++ {
				if a.syndromeAt(r, w) != 0 {
					clean = false
					break
				}
			}
		}
		if !clean {
			continue
		}
		// Every word of the group checks clean: any residue is now
		// retired (rebuilt away below) and the taint lifts.
		a.residual[g] = false
		if !a.groupMismatch(g) {
			continue
		}
		a.rebuildGroup(g)
		flushed++
	}
	return flushed
}

// IntegrityReport is the result of a non-mutating consistency audit.
type IntegrityReport struct {
	// FaultyWords counts words whose horizontal code flags an error.
	FaultyWords int
	// ParityMismatches counts vertical groups whose stored parity row
	// disagrees with the data.
	ParityMismatches int
}

// Clean reports whether the audit found nothing.
func (r IntegrityReport) Clean() bool {
	return r.FaultyWords == 0 && r.ParityMismatches == 0
}

// VerifyIntegrity audits the array without modifying anything: every
// word's horizontal code is checked and every vertical parity row is
// recomputed and compared. Diagnostics and tests use it to distinguish
// "clean", "recoverable", and "silently inconsistent" states.
func (a *Array) VerifyIntegrity() IntegrityReport {
	rep := IntegrityReport{}
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			if a.syndromeAt(r, w) != 0 {
				rep.FaultyWords++
			}
		}
	}
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		if a.groupMismatch(g) {
			rep.ParityMismatches++
		}
	}
	return rep
}
