// Package bist implements the built-in self-test and self-repair
// machinery the paper's recovery process plugs into (§4, refs
// [8,18,24]): the March C- test over an abstract memory, fault classification, and a BISR flow that feeds
// detected faults into the redundancy allocator and re-verifies the
// repaired array.
package bist

import "fmt"

// Memory is the bit-addressable array under test.
type Memory interface {
	// Rows and Cols give the array dimensions.
	Rows() int
	Cols() int
	// ReadBit returns the stored bit at (row, col).
	ReadBit(row, col int) bool
	// WriteBit stores a bit at (row, col).
	WriteBit(row, col int, v bool)
}

// OpKind is a march-element operation type.
type OpKind uint8

const (
	// OpRead reads and compares against the expected value.
	OpRead OpKind = iota
	// OpWrite writes the value.
	OpWrite
)

// Op is one read-expect or write step of a march element.
type Op struct {
	Kind  OpKind
	Value bool
}

// R returns a read-expect op and W a write op; they keep march
// algorithm definitions close to the literature's r0/w1 notation.
func R(v bool) Op { return Op{Kind: OpRead, Value: v} }

// W returns a write op.
func W(v bool) Op { return Op{Kind: OpWrite, Value: v} }

// Order is the address sweep direction of an element.
type Order uint8

const (
	// Up sweeps addresses in ascending order.
	Up Order = iota
	// Down sweeps in descending order.
	Down
)

// Element is one march element: a sweep applying the op sequence at
// every cell.
type Element struct {
	Order Order
	Ops   []Op
}

// Algorithm is a named march test.
type Algorithm struct {
	Name     string
	Elements []Element
}

// MarchCMinus returns March C-:
// {⇑(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇑(r0)} — detects
// stuck-at, transition, and unlinked coupling faults (10N). This is
// the complexity class the paper equates the 2D recovery latency to.
func MarchCMinus() Algorithm {
	return Algorithm{
		Name: "March C-",
		Elements: []Element{
			{Up, []Op{W(false)}},
			{Up, []Op{R(false), W(true)}},
			{Up, []Op{R(true), W(false)}},
			{Down, []Op{R(false), W(true)}},
			{Down, []Op{R(true), W(false)}},
			{Up, []Op{R(false)}},
		},
	}
}

// Fail records one miscompare during a march run.
type Fail struct {
	// Row, Col locate the failing cell.
	Row, Col int
	// Element and OpIndex identify the march step that caught it.
	Element, OpIndex int
	// Expected is the value the read should have returned.
	Expected bool
}

// Result summarises a march run.
type Result struct {
	// Algorithm is the test that ran.
	Algorithm string
	// Operations counts individual reads+writes performed.
	Operations int
	// Fails lists every miscompare (a faulty cell can appear several
	// times across elements).
	Fails []Fail
}

// FailingCells returns the distinct failing cell coordinates.
func (r Result) FailingCells() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, f := range r.Fails {
		k := [2]int{f.Row, f.Col}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Passed reports a clean run.
func (r Result) Passed() bool { return len(r.Fails) == 0 }

// Run executes the algorithm over the memory, visiting cells in
// row-major address order (ascending or descending per element).
func Run(mem Memory, alg Algorithm) Result {
	res := Result{Algorithm: alg.Name}
	rows, cols := mem.Rows(), mem.Cols()
	n := rows * cols
	for ei, el := range alg.Elements {
		for i := 0; i < n; i++ {
			addr := i
			if el.Order == Down {
				addr = n - 1 - i
			}
			r, c := addr/cols, addr%cols
			for oi, op := range el.Ops {
				res.Operations++
				switch op.Kind {
				case OpRead:
					if mem.ReadBit(r, c) != op.Value {
						res.Fails = append(res.Fails, Fail{
							Row: r, Col: c, Element: ei, OpIndex: oi, Expected: op.Value,
						})
					}
				case OpWrite:
					mem.WriteBit(r, c, op.Value)
				default:
					panic(fmt.Sprintf("bist: unknown op kind %d", op.Kind))
				}
			}
		}
	}
	return res
}
