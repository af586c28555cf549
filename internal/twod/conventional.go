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
type ConventionalArray struct {
	layout Layout
	code   ecc.Code
	data   *bitvec.Matrix
}

// NewConventionalArray builds a zeroed baseline array with the given
// per-word code and interleave degree.
func NewConventionalArray(rows, wordsPerRow int, code ecc.Code) (*ConventionalArray, error) {
	if code == nil {
		return nil, fmt.Errorf("twod: nil code")
	}
	layout := Layout{Rows: rows, WordsPerRow: wordsPerRow, CodewordBits: ecc.CodewordBits(code)}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return &ConventionalArray{
		layout: layout,
		code:   code,
		data:   bitvec.NewMatrix(rows, layout.RowBits()),
	}, nil
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

// Write stores data into word w of row r.
func (a *ConventionalArray) Write(r, w int, data *bitvec.Vector) {
	a.store(r, w, a.code.Encode(data))
}

// Read returns word w of row r after per-word decode. Corrections are
// written back to the cells.
func (a *ConventionalArray) Read(r, w int) (*bitvec.Vector, ecc.Result) {
	cw := a.extract(r, w)
	res, _ := a.code.Decode(cw)
	if res == ecc.Corrected {
		a.store(r, w, cw)
	}
	return a.code.Data(cw), res
}

// extract gathers word w's codeword out of row r.
func (a *ConventionalArray) extract(r, w int) *bitvec.Vector {
	cw := bitvec.New(a.layout.CodewordBits)
	a.layout.gather(cw.Words(), a.data.RowWords(r), w)
	return cw
}

// store overwrites word w's codeword in row r with cw.
func (a *ConventionalArray) store(r, w int, cw *bitvec.Vector) {
	delta := a.extract(r, w)
	delta.Xor(cw)
	a.layout.scatterXor(w, delta.Words(), a.data.RowWords(r))
}

// FlipBit flips the physical bit at (row, col) — fault injection.
func (a *ConventionalArray) FlipBit(row, col int) { a.data.Flip(row, col) }

// Scrub decodes every word in place (like a BIST pass) and reports how
// many words were corrected and how many remain uncorrectable.
func (a *ConventionalArray) Scrub() (corrected, uncorrectable int) {
	for r := 0; r < a.layout.Rows; r++ {
		for w := 0; w < a.layout.WordsPerRow; w++ {
			_, res := a.Read(r, w)
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
