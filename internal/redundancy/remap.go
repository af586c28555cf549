package redundancy

import "fmt"

// Remapper applies a repair plan at access time: addresses falling on a
// repaired row or column are redirected to spare lines, the way a BISR
// controller programs its address-match registers (§2.3, refs [8,24]).
type Remapper struct {
	cfg     Config
	rowMap  map[int]int // faulty row -> spare row index
	colMap  map[int]int // faulty col -> spare col index
	nextRow int
	nextCol int
}

// NewRemapper builds a remapper for the plan. It fails if the plan
// needs more spares than the configuration provides.
func NewRemapper(cfg Config, plan Plan) (*Remapper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(plan.RepairRows) > cfg.SpareRows {
		return nil, fmt.Errorf("redundancy: plan needs %d spare rows, have %d",
			len(plan.RepairRows), cfg.SpareRows)
	}
	if len(plan.RepairCols) > cfg.SpareCols {
		return nil, fmt.Errorf("redundancy: plan needs %d spare cols, have %d",
			len(plan.RepairCols), cfg.SpareCols)
	}
	r := &Remapper{cfg: cfg, rowMap: map[int]int{}, colMap: map[int]int{}}
	for _, row := range plan.RepairRows {
		r.rowMap[row] = r.nextRow
		r.nextRow++
	}
	for _, col := range plan.RepairCols {
		r.colMap[col] = r.nextCol
		r.nextCol++
	}
	return r, nil
}

// Translate maps a logical (row, col) to its physical location. Spare
// rows live at indices Rows..Rows+SpareRows-1 and spare columns at
// Cols..Cols+SpareCols-1 of the augmented array.
func (r *Remapper) Translate(row, col int) (prow, pcol int) {
	prow, pcol = row, col
	if s, ok := r.rowMap[row]; ok {
		prow = r.cfg.Rows + s
	}
	if s, ok := r.colMap[col]; ok {
		pcol = r.cfg.Cols + s
	}
	return prow, pcol
}
