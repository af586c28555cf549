// Package fault provides fault models and injection campaigns for the
// protected arrays: clustered multi-bit upsets, row and column
// failures, FIT-driven soft-error processes, and HER-driven
// manufacture-time hard errors. Campaigns measure correction coverage —
// the quantity behind the paper's Fig. 3 comparison and the 32x32
// coverage claim.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Flip identifies one upset cell in physical array coordinates.
type Flip struct {
	Row, Col int
}

// Pattern is a set of cell upsets applied atomically (one error event).
type Pattern struct {
	// Kind describes the fault model that generated the pattern.
	Kind string
	// Flips lists the upset cells. Duplicates are allowed and cancel
	// (an even number of flips of the same cell restores it).
	Flips []Flip
}

// Bounds returns the bounding box (height, width) of the pattern, or
// zeros for an empty pattern.
func (p Pattern) Bounds() (h, w int) {
	if len(p.Flips) == 0 {
		return 0, 0
	}
	minR, maxR := p.Flips[0].Row, p.Flips[0].Row
	minC, maxC := p.Flips[0].Col, p.Flips[0].Col
	for _, f := range p.Flips[1:] {
		if f.Row < minR {
			minR = f.Row
		}
		if f.Row > maxR {
			maxR = f.Row
		}
		if f.Col < minC {
			minC = f.Col
		}
		if f.Col > maxC {
			maxC = f.Col
		}
	}
	return maxR - minR + 1, maxC - minC + 1
}

// Target is any array that exposes raw physical bit flips; both
// twod.Array and twod.ConventionalArray satisfy it.
type Target interface {
	FlipBit(row, col int)
	Rows() int
	RowBits() int
}

// Apply injects the pattern into the target.
func Apply(t Target, p Pattern) {
	for _, f := range p.Flips {
		t.FlipBit(f.Row, f.Col)
	}
}

// SolidCluster returns a fully-flipped h x w rectangle at (row, col).
func SolidCluster(row, col, h, w int) Pattern {
	p := Pattern{Kind: fmt.Sprintf("solid-%dx%d", h, w)}
	for r := row; r < row+h; r++ {
		for c := col; c < col+w; c++ {
			p.Flips = append(p.Flips, Flip{r, c})
		}
	}
	return p
}

// SparseCluster returns a random non-empty subset of an h x w rectangle
// with the given fill density in (0, 1]. The pattern is guaranteed to
// touch its extreme rows and columns so Bounds() == (h, w).
func SparseCluster(rng *rand.Rand, row, col, h, w int, density float64) Pattern {
	p := Pattern{Kind: fmt.Sprintf("sparse-%dx%d", h, w)}
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			if rng.Float64() < density {
				p.Flips = append(p.Flips, Flip{row + r, col + c})
			}
		}
	}
	// Pin the corners' rows/cols so the footprint really spans h x w.
	p.Flips = append(p.Flips,
		Flip{row, col},
		Flip{row + h - 1, col + w - 1},
	)
	return p
}

// RowFailure flips every cell of row r across width bits.
func RowFailure(r, width int) Pattern {
	p := Pattern{Kind: "row-failure"}
	for c := 0; c < width; c++ {
		p.Flips = append(p.Flips, Flip{r, c})
	}
	return p
}

// ColumnStuckAt models a stuck-at column: each of the rows cells flips
// independently with probability 1/2 (a stuck value disagrees with
// random stored data half the time).
func ColumnStuckAt(rng *rand.Rand, col, rows int) Pattern {
	p := Pattern{Kind: "column-stuck"}
	for r := 0; r < rows; r++ {
		if rng.Intn(2) == 1 {
			p.Flips = append(p.Flips, Flip{r, col})
		}
	}
	return p
}

// --- soft-error process -----------------------------------------------

// FITRate converts a per-Mb FIT figure (failures per 10^9 device-hours
// per megabit) and a capacity in bits into expected upsets per hour.
func FITRate(fitPerMb float64, bits int) float64 {
	return fitPerMb * (float64(bits) / 1e6) / 1e9
}

// EventSize describes the footprint of a single upset event.
type EventSize struct {
	H, W int
}

// EventSizeDist is a discrete distribution over multi-bit upset
// footprints. As technology scales the paper cites single-event
// multi-bit upsets growing from rare to dominant (refs [29,34,41]).
type EventSizeDist struct {
	Sizes []EventSize
	Probs []float64 // must sum to ~1
}

// Validate checks the distribution.
func (d EventSizeDist) Validate() error {
	if len(d.Sizes) == 0 || len(d.Sizes) != len(d.Probs) {
		return fmt.Errorf("fault: malformed size distribution")
	}
	sum := 0.0
	for _, p := range d.Probs {
		if p < 0 {
			return fmt.Errorf("fault: negative probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("fault: probabilities sum to %v, want 1", sum)
	}
	return nil
}

// Sample draws a footprint.
func (d EventSizeDist) Sample(rng *rand.Rand) EventSize {
	x := rng.Float64()
	acc := 0.0
	for i, p := range d.Probs {
		acc += p
		if x < acc {
			return d.Sizes[i]
		}
	}
	return d.Sizes[len(d.Sizes)-1]
}

// ModernDist is a representative upset-footprint mix for a nanometre
// node: mostly single-bit with a tail of 2x1, 2x2, 4x4 and 8x8 events
// (shaped after the characterisation in the paper's refs [29,34]).
func ModernDist() EventSizeDist {
	return EventSizeDist{
		Sizes: []EventSize{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 4}, {8, 8}},
		Probs: []float64{0.60, 0.10, 0.10, 0.10, 0.07, 0.03},
	}
}

// SoftEvent generates one upset event with the drawn footprint at a
// uniformly random anchor inside the array.
func SoftEvent(rng *rand.Rand, rows, cols int, dist EventSizeDist) Pattern {
	sz := dist.Sample(rng)
	h, w := sz.H, sz.W
	if h > rows {
		h = rows
	}
	if w > cols {
		w = cols
	}
	r0 := rng.Intn(rows - h + 1)
	c0 := rng.Intn(cols - w + 1)
	return SparseCluster(rng, r0, c0, h, w, 0.8)
}
