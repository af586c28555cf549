package bist

import (
	"fmt"

	"twodcache/internal/bitvec"
)

// FaultKind classifies injected manufacturing defects.
type FaultKind uint8

const (
	// StuckAt0 cells always read 0.
	StuckAt0 FaultKind = iota
	// StuckAt1 cells always read 1.
	StuckAt1
	// TransitionUp cells fail the 0->1 transition (stay 0 when written
	// 1 from 0) but can be reset.
	TransitionUp
	// TransitionDown cells fail the 1->0 transition.
	TransitionDown
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case TransitionUp:
		return "transition-up"
	case TransitionDown:
		return "transition-down"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// CellFault is an injected defect at one cell.
type CellFault struct {
	Row, Col int
	Kind     FaultKind
}

// FaultyArray is a bit array with injectable manufacturing defects; it
// implements Memory so march tests exercise it like silicon.
type FaultyArray struct {
	rows, cols int
	data       *bitvec.Matrix
	faults     map[[2]int]FaultKind
}

// NewFaultyArray builds a zeroed array.
func NewFaultyArray(rows, cols int) (*FaultyArray, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("bist: invalid dimensions %dx%d", rows, cols)
	}
	return &FaultyArray{
		rows: rows, cols: cols,
		data:   bitvec.NewMatrix(rows, cols),
		faults: map[[2]int]FaultKind{},
	}, nil
}

// MustFaultyArray panics on error.
func MustFaultyArray(rows, cols int) *FaultyArray {
	a, err := NewFaultyArray(rows, cols)
	if err != nil {
		panic(err)
	}
	return a
}

// Inject adds a defect. Stuck-at faults take effect immediately.
func (a *FaultyArray) Inject(f CellFault) error {
	if f.Row < 0 || f.Row >= a.rows || f.Col < 0 || f.Col >= a.cols {
		return fmt.Errorf("bist: fault %+v out of bounds", f)
	}
	a.faults[[2]int{f.Row, f.Col}] = f.Kind
	switch f.Kind {
	case StuckAt0:
		a.data.Set(f.Row, f.Col, false)
	case StuckAt1:
		a.data.Set(f.Row, f.Col, true)
	}
	return nil
}

// Rows returns the row count.
func (a *FaultyArray) Rows() int { return a.rows }

// Cols returns the column count.
func (a *FaultyArray) Cols() int { return a.cols }

// ReadBit returns the stored (possibly faulty) value.
func (a *FaultyArray) ReadBit(row, col int) bool {
	return a.data.Bit(row, col)
}

// WriteBit stores a value, subject to the cell's defect behaviour.
func (a *FaultyArray) WriteBit(row, col int, v bool) {
	if k, faulty := a.faults[[2]int{row, col}]; faulty {
		switch k {
		case StuckAt0, StuckAt1:
			return // value pinned
		case TransitionUp:
			if v && !a.data.Bit(row, col) {
				return // 0->1 transition fails
			}
		case TransitionDown:
			if !v && a.data.Bit(row, col) {
				return // 1->0 transition fails
			}
		}
	}
	a.data.Set(row, col, v)
}

var _ Memory = (*FaultyArray)(nil)
