package bitvec

import "fmt"

// Matrix is a rectangular grid of bits, stored row-major as a slice of
// Vectors. It models a physical SRAM sub-array: Rows() is the wordline
// dimension and Cols() the bitline dimension.
type Matrix struct {
	rows, cols int
	data       []*Vector
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitvec: negative matrix dimensions %dx%d", rows, cols))
	}
	m := &Matrix{rows: rows, cols: cols, data: make([]*Vector, rows)}
	for i := range m.data {
		m.data[i] = New(cols)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Bit reports whether the bit at (r, c) is set.
func (m *Matrix) Bit(r, c int) bool { return m.row(r).Bit(c) }

// Set sets the bit at (r, c).
func (m *Matrix) Set(r, c int, val bool) { m.row(r).Set(c, val) }

// Flip inverts the bit at (r, c).
func (m *Matrix) Flip(r, c int) { m.row(r).Flip(c) }

// Row returns the Vector backing row r. Mutating it mutates the matrix.
func (m *Matrix) Row(r int) *Vector { return m.row(r) }

// RowWords returns row r's backing words for allocation-free kernel
// access. Mutating them mutates the matrix; bits >= Cols in the last
// word must stay zero.
func (m *Matrix) RowWords(r int) []uint64 { return m.row(r).words }

func (m *Matrix) row(r int) *Vector {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitvec: row %d out of range [0,%d)", r, m.rows))
	}
	return m.data[r]
}

// Col extracts column c as a new Vector of length Rows.
func (m *Matrix) Col(c int) *Vector {
	if c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitvec: col %d out of range [0,%d)", c, m.cols))
	}
	v := New(m.rows)
	for r := 0; r < m.rows; r++ {
		if m.data[r].Bit(c) {
			v.Set(r, true)
		}
	}
	return v
}

// XorRow XORs src into row r in place.
func (m *Matrix) XorRow(r int, src *Vector) { m.row(r).Xor(src) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]*Vector, m.rows)}
	for i, v := range m.data {
		c.data[i] = v.Clone()
	}
	return c
}

// Equal reports whether both matrices have identical dimensions and bits.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if !m.data[i].Equal(other.data[i]) {
			return false
		}
	}
	return true
}

// PopCount returns the total number of set bits.
func (m *Matrix) PopCount() int {
	c := 0
	for _, v := range m.data {
		c += v.PopCount()
	}
	return c
}

// Zero clears every bit.
func (m *Matrix) Zero() {
	for _, v := range m.data {
		v.Zero()
	}
}

// Diff returns the set of (row, col) positions at which m and other differ.
func (m *Matrix) Diff(other *Matrix) [][2]int {
	if m.rows != other.rows || m.cols != other.cols {
		panic("bitvec: Diff dimension mismatch")
	}
	var out [][2]int
	for r := 0; r < m.rows; r++ {
		d := m.data[r].Clone()
		d.Xor(other.data[r])
		for _, c := range d.Ones() {
			out = append(out, [2]int{r, c})
		}
	}
	return out
}
