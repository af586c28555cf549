// Package twod implements the paper's primary contribution: a memory
// array protected by two-dimensional error coding. A light-weight
// horizontal per-word code (interleaved-parity EDCn, or Hsiao SECDED
// for in-line single-bit correction and yield enhancement) is checked
// on every read, while interleaved vertical parity rows — maintained in
// the background via read-before-write delta updates — are consulted
// only by the rare recovery process to reconstruct large clustered
// errors, row failures, and column failures.
package twod

import (
	"fmt"
	"math/bits"
)

// Layout describes the physical geometry of one protected sub-array:
// how many logical words share a physical row and how their codeword
// bits are interleaved along the wordline.
//
// With d-way physical bit interleaving, physical column c of a row
// holds bit c/d of word c%d, so a contiguous physical burst of up to
// d*n bits touches each word's EDCn parity groups at most once per
// group (paper §2.2, §3). Every array in this package moves a whole
// codeword in or out of a row through gather and scatterXor;
// PhysColumn and Locate address single bits.
type Layout struct {
	// Rows is the number of data rows in the array (excluding vertical
	// parity rows).
	Rows int
	// WordsPerRow is the physical interleave degree d.
	WordsPerRow int
	// CodewordBits is the per-word codeword size (data + check bits).
	CodewordBits int
}

// Validate checks the geometry.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.WordsPerRow <= 0 || l.CodewordBits <= 0 {
		return fmt.Errorf("twod: invalid layout %+v", l)
	}
	return nil
}

// RowBits returns the physical row width in bits.
func (l Layout) RowBits() int { return l.WordsPerRow * l.CodewordBits }

// PhysColumn maps (word index within row, bit index within codeword) to
// a physical column.
func (l Layout) PhysColumn(word, bit int) int {
	if word < 0 || word >= l.WordsPerRow {
		panic(fmt.Sprintf("twod: word %d out of range [0,%d)", word, l.WordsPerRow))
	}
	if bit < 0 || bit >= l.CodewordBits {
		panic(fmt.Sprintf("twod: bit %d out of range [0,%d)", bit, l.CodewordBits))
	}
	return bit*l.WordsPerRow + word
}

// Locate maps a physical column back to (word index, codeword bit).
func (l Layout) Locate(col int) (word, bit int) {
	if col < 0 || col >= l.RowBits() {
		panic(fmt.Sprintf("twod: column %d out of range [0,%d)", col, l.RowBits()))
	}
	return col % l.WordsPerRow, col / l.WordsPerRow
}

// Words returns the total number of addressable words in the array.
func (l Layout) Words() int { return l.Rows * l.WordsPerRow }

// gather copies word w's codeword out of the interleaved row bits src
// into the first bitvec.WordsFor(CodewordBits) words of dst. Codeword
// bit b is physical column b*d+w, as in PhysColumn; the bits of those
// words past CodewordBits come out zero.
func (l Layout) gather(dst, src []uint64, w int) {
	nb, d := l.CodewordBits, l.WordsPerRow
	n := (nb + 63) >> 6
	if d == 1 {
		// Contiguous layout: the codeword is the row prefix.
		copy(dst[:n], src)
		if rem := nb & 63; rem != 0 {
			dst[n-1] &= 1<<uint(rem) - 1
		}
		return
	}
	col := w
	for i := range dst[:n] {
		var x uint64
		for b := range min(64, nb-i<<6) {
			x |= (src[col>>6] >> uint(col&63) & 1) << uint(b)
			col += d
		}
		dst[i] = x
	}
}

// scatterXor flips, in each of the interleaved rows, the physical column
// of every bit of word w's codeword that is set in delta: gather's
// inverse for a delta, so applying it to the row a codeword was gathered
// from, with delta = old XOR new, stores new.
func (l Layout) scatterXor(w int, delta []uint64, rows ...[]uint64) {
	d := l.WordsPerRow
	for i, x := range delta {
		base := i << 6
		for x != 0 {
			col := (base+bits.TrailingZeros64(x))*d + w
			x &= x - 1
			mask := uint64(1) << uint(col&63)
			for _, row := range rows {
				row[col>>6] ^= mask
			}
		}
	}
}

// store overwrites word w's codeword in row with cw, using delta (as
// many words as cw) as scratch for old XOR new.
func (l Layout) store(row []uint64, w int, cw, delta []uint64) {
	l.gather(delta, row, w)
	for i, x := range cw {
		delta[i] ^= x
	}
	l.scatterXor(w, delta, row)
}
