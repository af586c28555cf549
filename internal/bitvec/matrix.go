package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
)

// Matrix is a rectangular grid of bits, stored row-major in one word
// array with WordsFor(Cols) words per row. It models a physical SRAM
// sub-array: Rows() is the wordline dimension and Cols() the bitline
// dimension.
type Matrix struct {
	rows, cols, stride int
	words              []uint64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitvec: negative matrix dimensions %dx%d", rows, cols))
	}
	stride := WordsFor(cols)
	return &Matrix{rows: rows, cols: cols, stride: stride, words: make([]uint64, rows*stride)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Bit reports whether the bit at (r, c) is set.
func (m *Matrix) Bit(r, c int) bool {
	i, mask := m.at(r, c)
	return m.words[i]&mask != 0
}

// Set sets the bit at (r, c).
func (m *Matrix) Set(r, c int, val bool) {
	i, mask := m.at(r, c)
	if val {
		m.words[i] |= mask
	} else {
		m.words[i] &^= mask
	}
}

// Flip inverts the bit at (r, c).
func (m *Matrix) Flip(r, c int) {
	i, mask := m.at(r, c)
	m.words[i] ^= mask
}

// at returns the backing-word index and mask of the bit at (r, c).
func (m *Matrix) at(r, c int) (int, uint64) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitvec: bit (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
	return r*m.stride + c/wordBits, 1 << (uint(c) % wordBits)
}

// Row returns a Cols-bit view of row r. Mutating it mutates the matrix.
func (m *Matrix) Row(r int) Codeword { return Codeword{n: m.cols, w: m.RowWords(r)} }

// RowWords returns row r's WordsFor(Cols) backing words for
// allocation-free kernel access, with capacity clipped to the row so an
// append cannot spill into the next one. Mutating them mutates the
// matrix; bits >= Cols in the last word must stay zero.
func (m *Matrix) RowWords(r int) []uint64 {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitvec: row %d out of range [0,%d)", r, m.rows))
	}
	lo, hi := r*m.stride, (r+1)*m.stride
	return m.words[lo:hi:hi]
}

// XorRow XORs src into row r in place.
func (m *Matrix) XorRow(r int, src Codeword) { m.Row(r).Xor(src) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := *m
	c.words = slices.Clone(m.words)
	return &c
}

// Equal reports whether both matrices have identical dimensions and bits.
func (m *Matrix) Equal(other *Matrix) bool {
	return m.rows == other.rows && m.cols == other.cols && slices.Equal(m.words, other.words)
}

// PopCount returns the total number of set bits.
func (m *Matrix) PopCount() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Diff returns the set of (row, col) positions at which m and other differ.
func (m *Matrix) Diff(other *Matrix) [][2]int {
	if m.rows != other.rows || m.cols != other.cols {
		panic("bitvec: Diff dimension mismatch")
	}
	var out [][2]int
	for i, x := range m.words {
		r, c0 := i/m.stride, i%m.stride*wordBits
		for x ^= other.words[i]; x != 0; x &= x - 1 {
			out = append(out, [2]int{r, c0 + bits.TrailingZeros64(x)})
		}
	}
	return out
}
