package bitvec

import (
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4, 10)
	if m.Rows() != 4 || m.Cols() != 10 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(2, 7, true)
	if !m.Bit(2, 7) {
		t.Fatal("Set/Bit failed")
	}
	m.Flip(2, 7)
	if m.Bit(2, 7) {
		t.Fatal("Flip failed")
	}
	if m.PopCount() != 0 {
		t.Fatal("PopCount after clear")
	}
}

func TestMatrixRowColExtraction(t *testing.T) {
	m := NewMatrix(8, 8)
	// Set the main diagonal.
	for i := 0; i < 8; i++ {
		m.Set(i, i, true)
	}
	for i := 0; i < 8; i++ {
		row := m.Row(i)
		if row.PopCount() != 1 || !row.Bit(i) {
			t.Fatalf("row %d = %s", i, row)
		}
	}
}

func TestMatrixRowAliasesStorage(t *testing.T) {
	m := NewMatrix(2, 4)
	m.Row(0).SetBit(3, true)
	if !m.Bit(0, 3) {
		t.Fatal("Row() must alias backing storage")
	}
}

// TestMatrixRowsAreViews pins the one-array layout: Row(r) writes
// through to row r alone, RowWords(r) holds WordsFor(Cols) words with
// no spare capacity to append into the next row, and on a width that is
// not a multiple of 64 the bits past Cols stay zero after Flip and
// XorRow. The word kernels and the 2D array's layout rely on that.
func TestMatrixRowsAreViews(t *testing.T) {
	const rows, cols = 4, 130
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		w := m.RowWords(r)
		if len(w) != WordsFor(cols) || cap(w) != len(w) {
			t.Fatalf("row %d: %d words, capacity %d, want %d", r, len(w), cap(w), WordsFor(cols))
		}
		m.Row(r).Flip(r)
		if !m.Bit(r, r) || m.PopCount() != r+1 {
			t.Fatalf("row %d: a flip through Row reached %d bits", r, m.PopCount())
		}
	}
	ones := New(cols)
	for c := 0; c < cols; c++ {
		ones.SetBit(c, true)
	}
	for r := 0; r < rows; r++ {
		m.XorRow(r, ones)
		m.Flip(r, cols-1)
		if tail := m.RowWords(r)[WordsFor(cols)-1] >> (cols % 64); tail != 0 {
			t.Fatalf("row %d: bits past Cols set: %#x", r, tail)
		}
	}
	if m.PopCount() != rows*(cols-2) {
		t.Fatalf("PopCount = %d, want %d", m.PopCount(), rows*(cols-2))
	}
}

func TestMatrixXorRowRecoversRow(t *testing.T) {
	// The core 2D-recovery identity: XOR of all rows sharing a parity
	// group equals the missing row.
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(16, 64)
	for r := 0; r < 16; r++ {
		m.Row(r).CopyFrom(randomCodeword(rng, 64))
	}
	parity := New(64)
	for r := 0; r < 16; r++ {
		parity.Xor(m.Row(r))
	}
	// Reconstruct row 5 from parity and all other rows.
	rec := parity.Clone()
	for r := 0; r < 16; r++ {
		if r != 5 {
			rec.Xor(m.Row(r))
		}
	}
	if !rec.Equal(m.Row(5)) {
		t.Fatal("XOR reconstruction failed")
	}
}

func TestMatrixCloneIndependence(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(1, 1, true)
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("clone not equal")
	}
	c.Flip(0, 0)
	if c.Equal(m) {
		t.Fatal("clone aliased original")
	}
	if m.Bit(0, 0) {
		t.Fatal("mutating clone changed original")
	}
}

func TestMatrixDiff(t *testing.T) {
	a := NewMatrix(4, 4)
	b := a.Clone()
	b.Set(1, 2, true)
	b.Set(3, 0, true)
	d := a.Diff(b)
	if len(d) != 2 {
		t.Fatalf("diff len = %d", len(d))
	}
	if d[0] != [2]int{1, 2} || d[1] != [2]int{3, 0} {
		t.Fatalf("diff = %v", d)
	}
	if len(a.Diff(a)) != 0 {
		t.Fatal("self diff nonempty")
	}
}

func TestMatrixZero(t *testing.T) {
	m := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		m.Set(i, 4-i, true)
	}
	m.Zero()
	if m.PopCount() != 0 {
		t.Fatal("Zero left bits set")
	}
}
