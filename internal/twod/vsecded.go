package twod

import (
	"fmt"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// VSECDEDArray is the alternative vertical-code design point the paper
// sketches in §3 ("the horizontal and vertical coding can either be
// EDC or ECC"): instead of V interleaved parity rows, every physical
// column carries a vertical Hsiao SECDED code over all data rows. Check
// storage is r_v check rows (10 for 256 rows) — less than EDC32's 32
// parity rows — and correction of a column's single bit needs no group
// XOR; but only ONE error per column is correctable, so solid clusters
// taller than one row defeat it. The trade-off is quantified by the
// abl-vcode ablation: vertical parity wins on clustered errors,
// vertical SECDED on scattered ones, at a third of the check storage.
//
// Words are at most 64 bits wide and are read and written as uint64.
// Accesses reuse array-owned scratch, so callers serialise them.
type VSECDEDArray struct {
	layout Layout
	horiz  ecc.HorizontalCode
	vcode  *ecc.SECDED
	data   *bitvec.Matrix
	checks *bitvec.Matrix // vcode.CheckBits() rows x RowBits
	stats  Stats
	mask   uint64 // the low DataBits bits
	// scr is the access scratch: the word codeword in flight, the
	// old-XOR-new delta of a store, the staged data word, and one
	// column's vertical codeword (Rows + CheckRows bits).
	scr struct{ cw, delta, data, col []uint64 }
}

// NewVSECDEDArray builds a zeroed array with horizontal code h and a
// vertical SECDED over the rows dimension.
func NewVSECDEDArray(rows, wordsPerRow int, h ecc.HorizontalCode) (*VSECDEDArray, error) {
	if h == nil {
		return nil, fmt.Errorf("twod: nil horizontal code")
	}
	if k := h.DataBits(); k > 64 {
		return nil, fmt.Errorf("twod: %d-bit data words, at most 64 supported", k)
	}
	layout := Layout{Rows: rows, WordsPerRow: wordsPerRow, CodewordBits: ecc.CodewordBits(h)}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	vcode, err := ecc.NewSECDED(rows)
	if err != nil {
		return nil, fmt.Errorf("twod: vertical code: %w", err)
	}
	a := &VSECDEDArray{
		layout: layout,
		horiz:  h,
		vcode:  vcode,
		data:   bitvec.NewMatrix(rows, layout.RowBits()),
		checks: bitvec.NewMatrix(vcode.CheckBits(), layout.RowBits()),
		mask:   ^uint64(0) >> (64 - h.DataBits()),
	}
	a.scr.cw = make([]uint64, bitvec.WordsFor(layout.CodewordBits))
	a.scr.delta = make([]uint64, len(a.scr.cw))
	a.scr.data = make([]uint64, 1)
	a.scr.col = make([]uint64, bitvec.WordsFor(ecc.CodewordBits(vcode)))
	return a, nil
}

// MustVSECDEDArray panics on error.
func MustVSECDEDArray(rows, wordsPerRow int, h ecc.HorizontalCode) *VSECDEDArray {
	a, err := NewVSECDEDArray(rows, wordsPerRow, h)
	if err != nil {
		panic(err)
	}
	return a
}

// Layout returns the physical geometry.
func (a *VSECDEDArray) Layout() Layout { return a.layout }

// Rows returns the data row count.
func (a *VSECDEDArray) Rows() int { return a.layout.Rows }

// RowBits returns the physical row width.
func (a *VSECDEDArray) RowBits() int { return a.layout.RowBits() }

// CheckRows returns the number of vertical check rows (r_v).
func (a *VSECDEDArray) CheckRows() int { return a.vcode.CheckBits() }

// Stats returns the activity counters.
func (a *VSECDEDArray) Stats() Stats { return a.stats }

// vDelta XORs the vertical-code contribution of a flip at data row r
// into column c's check bits. SECDED encoding is linear, so the delta
// is just row r's parity-check column.
func (a *VSECDEDArray) vDelta(r, c int) {
	mask := a.vcode.ParityColumn(r)
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			a.checks.Flip(i, c)
		}
		mask >>= 1
	}
}

// WriteUint64 stores the low DataBits bits of v into word w of row r
// with a read-before-write vertical update, exactly as the parity
// variant does.
func (a *VSECDEDArray) WriteUint64(r, w int, v uint64) {
	a.stats.Writes++
	a.stats.ExtraReads++
	a.scr.data[0] = v & a.mask
	cw := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	a.horiz.EncodeInto(cw, bitvec.MakeCodeword(a.scr.data, a.horiz.DataBits()))
	row := a.data.Row(r)
	for b := 0; b < a.layout.CodewordBits; b++ {
		col := a.layout.PhysColumn(w, b)
		if row.Bit(col) != cw.Bit(b) {
			row.Flip(col)
			a.vDelta(r, col)
		}
	}
}

// ReadUint64 returns word w of row r, recovering through the vertical
// SECDED when the horizontal code flags an error.
func (a *VSECDEDArray) ReadUint64(r, w int) (uint64, ReadStatus) {
	a.stats.Reads++
	st := ReadClean
	switch res, _ := a.horiz.DecodeInPlace(a.extract(r, w)); res {
	case ecc.Clean:
	case ecc.Corrected:
		// Restore the corrupted cells; the vertical checks already hold
		// their intended value, so they stay as they are.
		a.stats.InlineCorrections++
		a.layout.store(a.data.RowWords(r), w, a.scr.cw, a.scr.delta)
		st = ReadCorrectedInline
	default:
		// Recover's final scan reuses scr.cw, so gather the word again
		// whatever the outcome.
		ok := a.Recover().Success
		st = ReadRecovered
		if a.horiz.SyndromeWords(a.extract(r, w)) != 0 || !ok {
			st = ReadUncorrectable
		}
	}
	return a.scr.cw[0] & a.mask, st
}

// extract gathers word w's codeword out of row r into scr.cw.
func (a *VSECDEDArray) extract(r, w int) bitvec.Codeword {
	a.layout.gather(a.scr.cw, a.data.RowWords(r), w)
	return bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
}

// FlipBit injects an error into a data cell.
func (a *VSECDEDArray) FlipBit(row, col int) { a.data.Flip(row, col) }

// SnapshotData returns a deep copy of the data matrix.
func (a *VSECDEDArray) SnapshotData() *bitvec.Matrix { return a.data.Clone() }

// columnCodeword assembles column c's vertical codeword (data bits then
// check bits) in scr.col for decoding.
func (a *VSECDEDArray) columnCodeword(c int) bitvec.Codeword {
	cw := bitvec.MakeCodeword(a.scr.col, a.layout.Rows+a.vcode.CheckBits())
	cw.Zero()
	for r := 0; r < a.layout.Rows; r++ {
		if a.data.Bit(r, c) {
			cw.SetBit(r, true)
		}
	}
	for i := 0; i < a.vcode.CheckBits(); i++ {
		if a.checks.Bit(i, c) {
			cw.SetBit(a.layout.Rows+i, true)
		}
	}
	return cw
}

// Recover runs the vertical-SECDED correction: every column decodes
// independently, fixing at most one erroneous bit per column. Columns
// with multi-bit damage are uncorrectable.
func (a *VSECDEDArray) Recover() RecoveryReport {
	a.stats.Recoveries++
	rep := RecoveryReport{Mode: RecoveryColumn}
	ok := true
	for c := 0; c < a.layout.RowBits(); c++ {
		rep.ScanReads++
		cw := a.columnCodeword(c)
		res, _ := a.vcode.DecodeInPlace(cw)
		switch res {
		case ecc.Clean:
			continue
		case ecc.Corrected:
			// Write the corrected column back.
			for r := 0; r < a.layout.Rows; r++ {
				if a.data.Bit(r, c) != cw.Bit(r) {
					a.data.Flip(r, c)
					rep.BitsFlipped++
				}
			}
			for i := 0; i < a.vcode.CheckBits(); i++ {
				if a.checks.Bit(i, c) != cw.Bit(a.layout.Rows+i) {
					a.checks.Flip(i, c)
					rep.BitsFlipped++
				}
			}
		default:
			ok = false
		}
	}
	// Verify every word's horizontal code.
	for r := 0; r < a.layout.Rows; r++ {
		for w := 0; w < a.layout.WordsPerRow; w++ {
			rep.ScanReads++
			if a.horiz.SyndromeWords(a.extract(r, w)) != 0 {
				ok = false
			}
		}
	}
	if !ok {
		rep.Mode = RecoveryFailed
		a.stats.Uncorrectable++
		return rep
	}
	rep.Success = true
	return rep
}
