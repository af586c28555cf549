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
		col := m.Col(i)
		if col.PopCount() != 1 || !col.Bit(i) {
			t.Fatalf("col %d = %s", i, col)
		}
	}
}

func TestMatrixRowAliasesStorage(t *testing.T) {
	m := NewMatrix(2, 4)
	m.Row(0).Set(3, true)
	if !m.Bit(0, 3) {
		t.Fatal("Row() must alias backing storage")
	}
}

func TestMatrixXorRowRecoversRow(t *testing.T) {
	// The core 2D-recovery identity: XOR of all rows sharing a parity
	// group equals the missing row.
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(16, 64)
	for r := 0; r < 16; r++ {
		m.Row(r).CopyFrom(randomVec(rng, 64))
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
