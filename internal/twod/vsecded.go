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
type VSECDEDArray struct {
	layout Layout
	horiz  ecc.HorizontalCode
	vcode  *ecc.SECDED
	data   *bitvec.Matrix
	checks *bitvec.Matrix // vcode.CheckBits() rows x RowBits
	stats  Stats
}

// NewVSECDEDArray builds a zeroed array with horizontal code h and a
// vertical SECDED over the rows dimension.
func NewVSECDEDArray(rows, wordsPerRow int, h ecc.HorizontalCode) (*VSECDEDArray, error) {
	if h == nil {
		return nil, fmt.Errorf("twod: nil horizontal code")
	}
	layout := Layout{Rows: rows, WordsPerRow: wordsPerRow, CodewordBits: ecc.CodewordBits(h)}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	vcode, err := ecc.NewSECDED(rows)
	if err != nil {
		return nil, fmt.Errorf("twod: vertical code: %w", err)
	}
	return &VSECDEDArray{
		layout: layout,
		horiz:  h,
		vcode:  vcode,
		data:   bitvec.NewMatrix(rows, layout.RowBits()),
		checks: bitvec.NewMatrix(vcode.CheckBits(), layout.RowBits()),
	}, nil
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

// Write stores data into word w of row r with a read-before-write
// vertical update, exactly as the parity variant does.
func (a *VSECDEDArray) Write(r, w int, data *bitvec.Vector) {
	if data.Len() != a.horiz.DataBits() {
		panic(fmt.Sprintf("twod: Write data width %d != %d", data.Len(), a.horiz.DataBits()))
	}
	a.stats.Writes++
	a.stats.ExtraReads++
	cw := a.horiz.Encode(data)
	row := a.data.Row(r)
	for b := 0; b < a.layout.CodewordBits; b++ {
		col := a.layout.PhysColumn(w, b)
		if row.Bit(col) != cw.Bit(b) {
			row.Flip(col)
			a.vDelta(r, col)
		}
	}
}

// Read returns word w of row r, recovering through the vertical SECDED
// when the horizontal code flags an error.
func (a *VSECDEDArray) Read(r, w int) (*bitvec.Vector, ReadStatus) {
	a.stats.Reads++
	cw := a.extract(r, w)
	res, _ := a.horiz.Decode(cw)
	switch res {
	case ecc.Clean:
		return a.horiz.Data(cw), ReadClean
	case ecc.Corrected:
		a.stats.InlineCorrections++
		a.storeRaw(r, w, cw)
		return a.horiz.Data(cw), ReadCorrectedInline
	default:
		rep := a.Recover()
		cw = a.extract(r, w)
		if !rep.Success || a.horiz.SyndromeBits(cw) != 0 {
			return a.horiz.Data(cw), ReadUncorrectable
		}
		return a.horiz.Data(cw), ReadRecovered
	}
}

// extract gathers word w's codeword out of row r.
func (a *VSECDEDArray) extract(r, w int) *bitvec.Vector {
	cw := bitvec.New(a.layout.CodewordBits)
	a.layout.gather(cw.Words(), a.data.RowWords(r), w)
	return cw
}

// storeRaw overwrites word w's codeword in row r with cw, leaving the
// vertical checks alone: it restores corrupted cells to their intended
// value, which the checks already hold.
func (a *VSECDEDArray) storeRaw(r, w int, cw *bitvec.Vector) {
	delta := a.extract(r, w)
	delta.Xor(cw)
	a.layout.scatterXor(w, delta.Words(), a.data.RowWords(r))
}

// FlipBit injects an error into a data cell.
func (a *VSECDEDArray) FlipBit(row, col int) { a.data.Flip(row, col) }

// SnapshotData returns a deep copy of the data matrix.
func (a *VSECDEDArray) SnapshotData() *bitvec.Matrix { return a.data.Clone() }

// columnCodeword assembles column c's vertical codeword (data bits then
// check bits) for decoding.
func (a *VSECDEDArray) columnCodeword(c int) *bitvec.Vector {
	n := a.layout.Rows + a.vcode.CheckBits()
	cw := bitvec.New(n)
	for r := 0; r < a.layout.Rows; r++ {
		if a.data.Bit(r, c) {
			cw.Set(r, true)
		}
	}
	for i := 0; i < a.vcode.CheckBits(); i++ {
		if a.checks.Bit(i, c) {
			cw.Set(a.layout.Rows+i, true)
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
		res, _ := a.vcode.Decode(cw)
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
			if a.horiz.SyndromeBits(a.extract(r, w)) != 0 {
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
