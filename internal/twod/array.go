package twod

import (
	"fmt"
	"sync/atomic"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// Config parameterises a 2D-protected array.
type Config struct {
	// Rows is the number of data rows.
	Rows int
	// WordsPerRow is the physical bit-interleave degree d.
	WordsPerRow int
	// Horizontal is the per-word code checked on every read (EDCn or
	// SECDED). Its data words are at most 64 bits wide: the array reads
	// and writes words as uint64.
	Horizontal ecc.HorizontalCode
	// VerticalGroups is V, the number of interleaved vertical parity
	// rows: data row r accumulates into parity row r mod V. The paper's
	// EDC32 vertical code is V = 32.
	VerticalGroups int
	// AssumeClusteredFaults declares the paper's fault model — errors
	// form contiguous column clusters (manufacturing column failures,
	// particle-strike clusters) — and lets column-mode recovery trust
	// it: suspect columns are pooled across ALL vertical groups and
	// each faulty word is solved over that pool, as in Fig. 4(b). Under
	// that model the solve is sound, and offline coverage campaigns
	// (fault.TwoDScheme, the Fig. 3/4 experiments) enable it to
	// measure the paper's claims. Under arbitrary fault patterns it is
	// forgeable: same-column pairs cancel out of the parity and
	// aliasing columns yield unique-looking wrong solutions that check
	// clean afterwards (see internal/replay/testdata/
	// {cancelpair,crosscluster,hiddenpair}-shrunk.trace). The default
	// (false) is the strict evidence discipline — under detection-only
	// codes a row is repaired from its group mismatch only when it is
	// the group's sole faulty row, and multi-row groups refuse so the
	// loss is escalated and accounted. Online caches (pcache) must
	// leave this false.
	AssumeClusteredFaults bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Horizontal == nil {
		return fmt.Errorf("twod: nil horizontal code")
	}
	if k := c.Horizontal.DataBits(); k > 64 {
		return fmt.Errorf("twod: %d-bit data words, at most 64 supported", k)
	}
	if c.Rows <= 0 || c.WordsPerRow <= 0 {
		return fmt.Errorf("twod: invalid geometry rows=%d words/row=%d", c.Rows, c.WordsPerRow)
	}
	if c.VerticalGroups <= 0 || c.VerticalGroups > c.Rows {
		return fmt.Errorf("twod: vertical groups %d out of range [1,%d]", c.VerticalGroups, c.Rows)
	}
	return nil
}

// Stats counts array activity; the CMP simulator and the overhead
// benches consume these. Counters are maintained with atomic adds so
// Stats and the metrics registry can read them without the array's
// lock.
type Stats struct {
	// Reads is the number of word read operations.
	Reads uint64
	// Writes is the number of word write operations.
	Writes uint64
	// ExtraReads counts the read-before-write operations issued to
	// update the vertical parity (the paper's ~20% extra accesses).
	ExtraReads uint64
	// InlineCorrections counts single-bit errors repaired by the
	// horizontal SECDED code without entering 2D recovery.
	InlineCorrections uint64
	// Recoveries counts invocations of the 2D recovery process.
	Recoveries uint64
	// RecoveredWords counts words repaired by 2D recovery.
	RecoveredWords uint64
	// Uncorrectable counts recovery attempts that failed (error
	// exceeded the 2D coverage).
	Uncorrectable uint64
}

// ReadStatus reports how a read completed.
type ReadStatus int

const (
	// ReadClean means the horizontal code checked clean.
	ReadClean ReadStatus = iota
	// ReadCorrectedInline means SECDED repaired a single-bit error
	// without invoking 2D recovery.
	ReadCorrectedInline
	// ReadRecovered means 2D recovery ran and repaired the word.
	ReadRecovered
	// ReadUncorrectable means the error exceeded 2D coverage; the
	// returned data is not trustworthy.
	ReadUncorrectable
)

// String names the read status.
func (s ReadStatus) String() string {
	switch s {
	case ReadClean:
		return "clean"
	case ReadCorrectedInline:
		return "corrected-inline"
	case ReadRecovered:
		return "recovered-2d"
	case ReadUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ReadStatus(%d)", int(s))
	}
}

// Array is a memory array protected by 2D error coding. All storage —
// data bits, horizontal check bits, and vertical parity rows — is
// explicit, so fault injection can flip any physical bit and recovery
// must cope exactly as hardware would.
//
// Words are read and written as uint64 (ReadUint64, WriteUint64,
// TryReadUint64, ForceWriteUint64), or a whole row of d words at once
// (ReadRowUint64, WriteRowUint64); Config.Validate rejects data words
// wider than 64 bits.
//
// Concurrency contract: every entry point except Stats requires the
// caller's exclusive access (the pcache banks hold their mutex around
// them). They all reuse array-owned scratch buffers, so the word
// accesses, a clean Recover pass and a Recover that rebuilds faulty
// rows from their groups perform no heap allocation (only column-mode
// recovery allocates).
type Array struct {
	cfg    cfgCache
	layout Layout
	data   *bitvec.Matrix // Rows x RowBits: interleaved codewords
	vpar   *bitvec.Matrix // VerticalGroups x RowBits: parity rows
	stats  Stats

	// residual[g] marks vertical group g as carrying an unattributable
	// parity residue: a word with unrepairable damage was overwritten by
	// the raw-delta discipline, leaving the old (unknown) error pattern
	// in the group's mismatch. Row-mode recovery must refuse to replay a
	// tainted group's mismatch into any row — residues can combine into
	// a code-valid pattern that slips past the per-word plausibility
	// check and forges a clean-looking wrong word. Cleared when the
	// group's parity is rebuilt from clean data (FlushResidualParity, a
	// clean Recover pass). Exclusive-path state: guarded by the same
	// external lock as WriteUint64/Recover.
	residual []bool

	// scr holds the exclusive-path scratch: one codeword buffer for the
	// access in flight, one for the old word of the read-before-write
	// delta, one DataBits-wide staging buffer for encodes, and the row
	// methods' d codewords and interleaved row.
	scr struct {
		cw    []uint64
		old   []uint64
		data  []uint64
		words []uint64
		row   []uint64
	}
	// rec is Recover's scratch, exclusive-path like scr: the scan's
	// faulty words in row-major order and their distinct rows, the
	// per-group vertical mismatch, faulty rows per group, and the groups
	// a recovery wrote into.
	rec struct {
		faulty     []faultyWord
		rows       []int
		mismatch   *bitvec.Matrix // VerticalGroups x RowBits
		groupCount []int
		touched    []bool
	}
	// sink, when set, receives recovery events (see SetEventSink in
	// obs.go). Atomic so installation races no access.
	sink atomic.Pointer[arraySink]
}

// cfgCache embeds Config plus derived values the hot loops need.
type cfgCache struct {
	Config
	dataMask uint64 // the low DataBits bits
}

// NewArray builds a zero-initialised protected array (vertical parity
// of all-zero data is all zero, so the array starts consistent).
func NewArray(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout := Layout{
		Rows:         cfg.Rows,
		WordsPerRow:  cfg.WordsPerRow,
		CodewordBits: ecc.CodewordBits(cfg.Horizontal),
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:      cfgCache{Config: cfg, dataMask: ^uint64(0) >> (64 - cfg.Horizontal.DataBits())},
		layout:   layout,
		data:     bitvec.NewMatrix(cfg.Rows, layout.RowBits()),
		vpar:     bitvec.NewMatrix(cfg.VerticalGroups, layout.RowBits()),
		residual: make([]bool, cfg.VerticalGroups),
	}
	cwWords := bitvec.WordsFor(layout.CodewordBits)
	a.scr.cw = make([]uint64, cwWords)
	a.scr.old = make([]uint64, cwWords)
	a.scr.data = make([]uint64, 1)
	a.scr.words = make([]uint64, cfg.WordsPerRow*cwWords)
	a.scr.row = make([]uint64, bitvec.WordsFor(layout.RowBits()))
	a.rec.faulty = make([]faultyWord, 0, cfg.WordsPerRow)
	a.rec.rows = make([]int, 0, cfg.VerticalGroups)
	a.rec.mismatch = bitvec.NewMatrix(cfg.VerticalGroups, layout.RowBits())
	a.rec.groupCount = make([]int, cfg.VerticalGroups)
	a.rec.touched = make([]bool, cfg.VerticalGroups)
	return a, nil
}

// MustArray is NewArray panicking on error.
func MustArray(cfg Config) *Array {
	a, err := NewArray(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg.Config }

// Layout returns the physical geometry.
func (a *Array) Layout() Layout { return a.layout }

// Stats returns a snapshot of the activity counters.
func (a *Array) Stats() Stats {
	return Stats{
		Reads:             atomic.LoadUint64(&a.stats.Reads),
		Writes:            atomic.LoadUint64(&a.stats.Writes),
		ExtraReads:        atomic.LoadUint64(&a.stats.ExtraReads),
		InlineCorrections: atomic.LoadUint64(&a.stats.InlineCorrections),
		Recoveries:        atomic.LoadUint64(&a.stats.Recoveries),
		RecoveredWords:    atomic.LoadUint64(&a.stats.RecoveredWords),
		Uncorrectable:     atomic.LoadUint64(&a.stats.Uncorrectable),
	}
}

// ResetStats zeroes the activity counters.
func (a *Array) ResetStats() {
	atomic.StoreUint64(&a.stats.Reads, 0)
	atomic.StoreUint64(&a.stats.Writes, 0)
	atomic.StoreUint64(&a.stats.ExtraReads, 0)
	atomic.StoreUint64(&a.stats.InlineCorrections, 0)
	atomic.StoreUint64(&a.stats.Recoveries, 0)
	atomic.StoreUint64(&a.stats.RecoveredWords, 0)
	atomic.StoreUint64(&a.stats.Uncorrectable, 0)
}

// Words returns the number of addressable words.
func (a *Array) Words() int { return a.layout.Words() }

// DataBits returns the logical word width.
func (a *Array) DataBits() int { return a.cfg.Horizontal.DataBits() }

// group returns the vertical parity group of data row r.
func (a *Array) group(r int) int { return r % a.cfg.VerticalGroups }

// --- word-kernel primitives --------------------------------------------
//
// The per-access data path works entirely on []uint64 scratch: gather
// the interleaved codeword bits into a scratch buffer, run the
// horizontal code's word-parallel kernel on it, and scatter only the
// changed bits back. No step allocates.

// extractInto gathers word w's codeword out of physical row r into dst
// (at least one codeword of words).
func (a *Array) extractInto(dst []uint64, r, w int) {
	a.layout.gather(dst, a.data.RowWords(r), w)
}

// syndromeAt returns the horizontal syndrome of word (r, w), leaving
// the word's codeword in a.scr.old.
func (a *Array) syndromeAt(r, w int) uint64 {
	a.extractInto(a.scr.old, r, w)
	return a.cfg.Horizontal.SyndromeWords(bitvec.MakeCodeword(a.scr.old, a.layout.CodewordBits))
}

// storeWords writes codeword cw into word slot (r, w), updating the
// vertical parity for every bit that changes (the delta-XOR of
// Fig. 4(a) step 2). a.scr.old must hold the slot's stored codeword,
// as syndromeAt leaves it; storeWords turns it into the delta.
func (a *Array) storeWords(r, w int, cw []uint64) {
	for i := range a.scr.old {
		a.scr.old[i] ^= cw[i] // now the delta
	}
	a.layout.scatterXor(w, a.scr.old, a.data.RowWords(r), a.vpar.RowWords(a.group(r)))
}

// storeRawWords writes codeword bits without a parity delta — used only
// to restore corrupted cells to their intended value. Exclusive path:
// uses a.scr.old.
func (a *Array) storeRawWords(r, w int, cw []uint64) {
	a.extractInto(a.scr.old, r, w)
	for i := range a.scr.old {
		a.scr.old[i] ^= cw[i]
	}
	a.layout.scatterXor(w, a.scr.old, a.data.RowWords(r))
}

// encodeDataInto encodes the staged data scratch into dst.
func (a *Array) encodeDataInto(dst []uint64) {
	a.cfg.Horizontal.EncodeInto(
		bitvec.MakeCodeword(dst, a.layout.CodewordBits),
		bitvec.MakeCodeword(a.scr.data, a.DataBits()))
}

// --- access API --------------------------------------------------------

// WriteUint64 stores the low DataBits bits of v into word w of row r.
// Every write is converted to a read-before-write: the old codeword is
// read both to compute the vertical parity delta and to check its
// integrity — a latent error under the overwritten word triggers
// recovery first, as the hardware's read-check would.
func (a *Array) WriteUint64(r, w int, v uint64) ReadStatus {
	a.scr.data[0] = v & a.cfg.dataMask
	return a.writeStaged(r, w)
}

// writeStaged completes a write of the staged a.scr.data word.
func (a *Array) writeStaged(r, w int) ReadStatus {
	atomic.AddUint64(&a.stats.Writes, 1)
	atomic.AddUint64(&a.stats.ExtraReads, 1) // the read-before-write
	status := ReadClean
	if a.syndromeAt(r, w) != 0 {
		// Latent error under the write target: repair before computing
		// the delta, otherwise the corruption would poison the parity.
		// Recover may rewrite the row, so repairWord gathers the word
		// into a.scr.old again for the stores below.
		if !a.repairWord(r, w) {
			// Unrepairable latent damage. Overwrite with the ordinary
			// delta write against the word's raw stored content. The
			// delta-against-raw discipline preserves every group's
			// parity mismatch exactly as it was: the old word's error
			// pattern stays represented in its own group's mismatch (a
			// residue with a nonzero horizontal syndrome, which
			// rowDeltaPlausible refuses to replay into any row), and —
			// crucially — no OTHER row's vertical recovery information
			// is touched. Rebuilding the parity from the array as
			// stored, as this path once did, erases the mismatch of
			// every still-faulty row in the bank; a later column-mode
			// recovery then solves those rows' syndromes over an
			// incomplete suspect set and, when parity columns alias
			// (EDC8 aliases physical columns mod 8), forges a
			// valid-looking wrong word — silent corruption. Residues
			// are flushed once their group checks clean
			// (FlushResidualParity / a clean Recover pass); until then
			// the group is marked tainted so row-mode recovery refuses
			// to replay its mismatch (residues can pair into code-valid
			// patterns the per-word plausibility check cannot see).
			a.residual[a.group(r)] = true
			a.encodeDataInto(a.scr.cw)
			a.storeWords(r, w, a.scr.cw)
			return ReadUncorrectable
		}
		status = ReadRecovered
	}
	a.encodeDataInto(a.scr.cw)
	a.storeWords(r, w, a.scr.cw)
	return status
}

// ReadUint64 returns word w of row r, checking the horizontal code and
// escalating to in-line SECDED correction or full 2D recovery as
// needed.
func (a *Array) ReadUint64(r, w int) (uint64, ReadStatus) {
	st := a.readIntoScratch(r, w)
	return a.scr.cw[0] & a.cfg.dataMask, st
}

// readIntoScratch performs the ReadUint64 escalation, leaving the (possibly
// repaired) codeword in a.scr.cw. Exclusive path.
func (a *Array) readIntoScratch(r, w int) ReadStatus {
	atomic.AddUint64(&a.stats.Reads, 1)
	a.extractInto(a.scr.cw, r, w)
	cw := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	res, _ := a.cfg.Horizontal.DecodeInPlace(cw)
	switch res {
	case ecc.Clean:
		return ReadClean
	case ecc.Corrected:
		// SECDED fixed a single-bit error in the copy; write the repair
		// back to the cells. The vertical parity reflects intended
		// contents, so restoring a corrupted cell must NOT touch parity.
		atomic.AddUint64(&a.stats.InlineCorrections, 1)
		a.storeRawWords(r, w, a.scr.cw)
		return ReadCorrectedInline
	default:
		if !a.repairWord(r, w) {
			a.extractInto(a.scr.cw, r, w)
			return ReadUncorrectable
		}
		a.extractInto(a.scr.cw, r, w)
		return ReadRecovered
	}
}

// ReadRowUint64 reads the d words of row r into dst[:d], word w's
// status into st[w], and returns how many words it read. It behaves
// exactly as ReadUint64(r, 0), …, ReadUint64(r, d-1) would, stopping
// after the first word that reads ReadUncorrectable. When every word
// checks clean it de-interleaves the row once (gatherRow); a row with
// any dirty word runs the per-word path for the whole row, recovery
// included.
func (a *Array) ReadRowUint64(r int, dst []uint64, st []ReadStatus) (n int) {
	d := a.cfg.WordsPerRow
	if !a.gatherRowClean(r) {
		for w := range d {
			dst[w], st[w] = a.ReadUint64(r, w)
			if st[w] == ReadUncorrectable {
				return w + 1
			}
		}
		return d
	}
	atomic.AddUint64(&a.stats.Reads, uint64(d))
	cw := len(a.scr.cw)
	for w := range d {
		dst[w] = a.scr.words[w*cw] & a.cfg.dataMask
		st[w] = ReadClean
	}
	return d
}

// WriteRowUint64 stores the low DataBits bits of src[w] into word w of
// row r for every w < d, word w's status into st[w], and returns how
// many words it wrote. It behaves exactly as WriteUint64(r, 0, src[0]),
// …, WriteUint64(r, d-1, src[d-1]) would, stopping after the first word
// that reads ReadUncorrectable. When every old word checks clean it
// encodes the d words, interleaves them into a new row and XORs old ⊕
// new into the group's parity row in one pass; a row with any dirty
// word runs the per-word path for the whole row.
func (a *Array) WriteRowUint64(r int, src []uint64, st []ReadStatus) (n int) {
	d := a.cfg.WordsPerRow
	if !a.gatherRowClean(r) {
		for w := range d {
			st[w] = a.WriteUint64(r, w, src[w])
			if st[w] == ReadUncorrectable {
				return w + 1
			}
		}
		return d
	}
	atomic.AddUint64(&a.stats.Writes, uint64(d))
	atomic.AddUint64(&a.stats.ExtraReads, uint64(d)) // the read-before-writes
	cw := len(a.scr.cw)
	for w := range d {
		a.scr.data[0] = src[w] & a.cfg.dataMask
		a.encodeDataInto(a.scr.words[w*cw : (w+1)*cw])
		st[w] = ReadClean
	}
	a.layout.interleave(a.scr.row, a.scr.words)
	data, par := a.data.RowWords(r), a.vpar.RowWords(a.group(r))
	for i, x := range a.scr.row {
		par[i] ^= data[i] ^ x
		data[i] = x
	}
	return d
}

// gatherRowClean de-interleaves row r into a.scr.words and reports
// whether every word's horizontal code checks clean.
func (a *Array) gatherRowClean(r int) bool {
	a.layout.gatherRow(a.scr.words, a.data.RowWords(r))
	cw := len(a.scr.cw)
	for w := range a.cfg.WordsPerRow {
		if a.cfg.Horizontal.SyndromeWords(bitvec.MakeCodeword(a.scr.words[w*cw:(w+1)*cw], a.layout.CodewordBits)) != 0 {
			return false
		}
	}
	return true
}

// TryReadUint64 returns word (r, w) if its horizontal code checks
// clean, WITHOUT mutating the array: no inline correction, no recovery.
// The second result is false when the word needs repair. Fault
// injectors use it to aim flips at words that are still clean.
func (a *Array) TryReadUint64(r, w int) (uint64, bool) {
	atomic.AddUint64(&a.stats.Reads, 1)
	a.extractInto(a.scr.cw, r, w)
	if a.cfg.Horizontal.SyndromeWords(bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)) != 0 {
		return 0, false
	}
	return a.scr.cw[0] & a.cfg.dataMask, true
}

// CorrectWord attempts a targeted word-level repair of (r, w) using the
// horizontal code only — no array-wide recovery march. It reports
// whether the word now checks clean. Detection-only horizontal codes
// (EDCn) can confirm a clean word but never repair a dirty one; a
// correcting code (SECDED) fixes single-bit errors in place. This is
// the cheap middle rung of a recovery escalation ladder: between a bare
// retry and the full Fig. 4(b) recovery process.
func (a *Array) CorrectWord(r, w int) bool {
	a.extractInto(a.scr.cw, r, w)
	cw := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	res, _ := a.cfg.Horizontal.DecodeInPlace(cw)
	switch res {
	case ecc.Clean:
		return true
	case ecc.Corrected:
		// Restoring corrupted cells to their intended value must not
		// touch the vertical parity (it already reflects intent).
		atomic.AddUint64(&a.stats.InlineCorrections, 1)
		a.storeRawWords(r, w, a.scr.cw)
		return true
	default:
		return false
	}
}

// FaultyWordList returns the coordinates of every word whose horizontal
// code currently flags an error, without mutating anything. Scrubbers
// use it after a failed recovery to map residual damage back to the
// cache lines that must be decommissioned.
func (a *Array) FaultyWordList() [][2]int {
	var out [][2]int
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			if a.syndromeAt(r, w) != 0 {
				out = append(out, [2]int{r, w})
			}
		}
	}
	return out
}

// repairWord runs 2D recovery and reports whether word (r, w) now
// checks clean, leaving the word's codeword in a.scr.old.
func (a *Array) repairWord(r, w int) bool {
	a.Recover()
	return a.syndromeAt(r, w) == 0
}

// --- fault-injection surface (used by internal/fault) -----------------

// FlipBit flips the physical data bit at (row, col) WITHOUT updating
// the vertical parity: this models an error, not a write.
func (a *Array) FlipBit(row, col int) { a.data.Flip(row, col) }

// FlipParityBit flips a bit of vertical parity row g: errors can strike
// the parity storage too.
func (a *Array) FlipParityBit(g, col int) { a.vpar.Flip(g, col) }

// RowBits returns the physical row width.
func (a *Array) RowBits() int { return a.layout.RowBits() }

// Rows returns the number of data rows.
func (a *Array) Rows() int { return a.cfg.Rows }

// VerticalGroups returns V.
func (a *Array) VerticalGroups() int { return a.cfg.VerticalGroups }

// SnapshotData returns a deep copy of the data matrix, for
// campaign-level golden comparisons.
func (a *Array) SnapshotData() *bitvec.Matrix { return a.data.Clone() }

// ParityRowWords returns a copy of vertical parity row g's backing
// words. The replay harness digests these (alongside the data plane)
// so bit-exact determinism covers the parity state too.
func (a *Array) ParityRowWords(g int) []uint64 {
	return append([]uint64(nil), a.vpar.RowWords(g)...)
}

// ForceWriteUint64 overwrites word (r, w) unconditionally — no
// integrity check, no recovery escalation. It is the software-visible
// "reload after an uncorrectable error" path: after data beyond the 2D
// coverage is detected (a machine-check in real hardware), the OS
// refetches the line regardless of how corrupted it was. The vertical
// parity is updated by delta against the word's raw stored content,
// which preserves every group's mismatch exactly: if the overwritten
// word held a detected error, its pattern remains in the group
// mismatch as a refusable residue, and no other row's vertical
// recovery information is erased (a full parity rebuild here would
// destroy the mismatch of every still-faulty row in the array —
// see writeStaged). Set-wipe callers follow up with
// FlushResidualParity once the affected groups check clean.
// Allocation-free and O(codeword), not O(array).
func (a *Array) ForceWriteUint64(r, w int, v uint64) {
	atomic.AddUint64(&a.stats.Writes, 1)
	if a.syndromeAt(r, w) != 0 {
		a.residual[a.group(r)] = true
	}
	a.scr.data[0] = v & a.cfg.dataMask
	a.encodeDataInto(a.scr.cw)
	a.storeWords(r, w, a.scr.cw)
}
