package twod

import (
	"fmt"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// ConventionalArray is the baseline the paper compares against: an
// array protected only by a per-word code (e.g. SECDED or OECNED) with
// physical bit interleaving — no vertical dimension. Its correction
// capability is whatever the per-word code can do after the interleave
// spreads a physical burst across words.
//
// Words are at most 64 bits wide and are read and written as uint64.
// Accesses reuse array-owned scratch, so callers serialise them.
type ConventionalArray struct {
	layout Layout
	code   ecc.Code
	data   *bitvec.Matrix
	mask   uint64 // the low DataBits bits
	// scr is the access scratch: the codeword in flight, the
	// old-XOR-new delta of a store, and the staged data word.
	scr struct{ cw, delta, data []uint64 }
}

// NewConventionalArray builds a zeroed baseline array with the given
// per-word code and interleave degree.
func NewConventionalArray(rows, wordsPerRow int, code ecc.Code) (*ConventionalArray, error) {
	if code == nil {
		return nil, fmt.Errorf("twod: nil code")
	}
	if k := code.DataBits(); k > 64 {
		return nil, fmt.Errorf("twod: %d-bit data words, at most 64 supported", k)
	}
	layout := Layout{Rows: rows, WordsPerRow: wordsPerRow, CodewordBits: ecc.CodewordBits(code)}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	a := &ConventionalArray{
		layout: layout,
		code:   code,
		data:   bitvec.NewMatrix(rows, layout.RowBits()),
		mask:   ^uint64(0) >> (64 - code.DataBits()),
	}
	a.scr.cw = make([]uint64, bitvec.WordsFor(layout.CodewordBits))
	a.scr.delta = make([]uint64, len(a.scr.cw))
	a.scr.data = make([]uint64, 1)
	return a, nil
}

// MustConventionalArray panics on configuration error.
func MustConventionalArray(rows, wordsPerRow int, code ecc.Code) *ConventionalArray {
	a, err := NewConventionalArray(rows, wordsPerRow, code)
	if err != nil {
		panic(err)
	}
	return a
}

// Layout returns the physical geometry.
func (a *ConventionalArray) Layout() Layout { return a.layout }

// WriteUint64 stores the low DataBits bits of v into word w of row r.
func (a *ConventionalArray) WriteUint64(r, w int, v uint64) {
	a.scr.data[0] = v & a.mask
	a.code.EncodeInto(bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits),
		bitvec.MakeCodeword(a.scr.data, a.code.DataBits()))
	a.layout.store(a.data.RowWords(r), w, a.scr.cw, a.scr.delta)
}

// ReadUint64 returns word w of row r after per-word decode. Corrections
// are written back to the cells.
func (a *ConventionalArray) ReadUint64(r, w int) (uint64, ecc.Result) {
	a.layout.gather(a.scr.cw, a.data.RowWords(r), w)
	res, _ := a.code.DecodeInPlace(bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits))
	if res == ecc.Corrected {
		a.layout.store(a.data.RowWords(r), w, a.scr.cw, a.scr.delta)
	}
	return a.scr.cw[0] & a.mask, res
}

// FlipBit flips the physical bit at (row, col) — fault injection.
func (a *ConventionalArray) FlipBit(row, col int) { a.data.Flip(row, col) }

// Scrub decodes every word in place (like a BIST pass) and reports how
// many words were corrected and how many remain uncorrectable.
func (a *ConventionalArray) Scrub() (corrected, uncorrectable int) {
	for r := 0; r < a.layout.Rows; r++ {
		for w := 0; w < a.layout.WordsPerRow; w++ {
			_, res := a.ReadUint64(r, w)
			switch res {
			case ecc.Corrected:
				corrected++
			case ecc.Detected:
				uncorrectable++
			}
		}
	}
	return corrected, uncorrectable
}

// SnapshotData returns a deep copy of the data matrix.
func (a *ConventionalArray) SnapshotData() *bitvec.Matrix { return a.data.Clone() }

// Rows returns the number of rows.
func (a *ConventionalArray) Rows() int { return a.layout.Rows }

// RowBits returns the physical row width.
func (a *ConventionalArray) RowBits() int { return a.layout.RowBits() }
