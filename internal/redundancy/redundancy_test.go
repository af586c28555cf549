package redundancy

import (
	"math/rand"
	"testing"
)

func cfg() Config {
	return Config{Rows: 64, Cols: 256, SpareRows: 4, SpareCols: 4, WordBits: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg()
	bad.Rows = 0
	if bad.Validate() == nil {
		t.Fatal("rows=0 accepted")
	}
	bad = cfg()
	bad.ECCSingleBit = true
	bad.WordBits = 60 // 256 % 60 != 0
	if bad.Validate() == nil {
		t.Fatal("indivisible words accepted")
	}
	bad = cfg()
	bad.SpareRows = -1
	if bad.Validate() == nil {
		t.Fatal("negative spares accepted")
	}
}

func TestAllocateEmpty(t *testing.T) {
	plan, err := Allocate(cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || len(plan.RepairRows) != 0 || len(plan.RepairCols) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestAllocateOutOfBounds(t *testing.T) {
	if _, err := Allocate(cfg(), []Fault{{Row: 99, Col: 0}}); err == nil {
		t.Fatal("out-of-bounds fault accepted")
	}
}

func TestAllocateSingleFaults(t *testing.T) {
	// Four scattered faults, four spare rows: repairable.
	plan, err := Allocate(cfg(), []Fault{{1, 10}, {5, 90}, {9, 170}, {30, 250}})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.RepairRows)+len(plan.RepairCols) > 4 {
		t.Fatalf("wasteful plan: %+v", plan)
	}
}

func TestAllocateRowFailure(t *testing.T) {
	// 40 faults along one row: must take a spare row (not 40 columns).
	var fs []Fault
	for c := 0; c < 40; c++ {
		fs = append(fs, Fault{Row: 7, Col: c * 6})
	}
	plan, err := Allocate(cfg(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || len(plan.RepairRows) != 1 || plan.RepairRows[0] != 7 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.RepairCols) != 0 {
		t.Fatalf("unnecessary column spares: %+v", plan)
	}
}

func TestAllocateColumnFailure(t *testing.T) {
	var fs []Fault
	for r := 0; r < 30; r++ {
		fs = append(fs, Fault{Row: r * 2, Col: 123})
	}
	plan, err := Allocate(cfg(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || len(plan.RepairCols) != 1 || plan.RepairCols[0] != 123 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestAllocateUnrepairable(t *testing.T) {
	// Six rows with heavy damage but only 4 spare rows and 4 spare
	// columns: not coverable.
	var fs []Fault
	for r := 0; r < 6; r++ {
		for c := 0; c < 12; c++ {
			fs = append(fs, Fault{Row: r * 10, Col: c*20 + r})
		}
	}
	plan, err := Allocate(cfg(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Repairable {
		t.Fatalf("plan should fail: %+v", plan)
	}
	if len(plan.Uncovered) == 0 {
		t.Fatal("no uncovered faults reported")
	}
}

func TestECCAbsorbsSingles(t *testing.T) {
	c := cfg()
	c.ECCSingleBit = true
	c.SpareRows, c.SpareCols = 0, 0
	// One fault per word: all absorbed by ECC, no spares needed.
	fs := []Fault{{0, 3}, {1, 70}, {2, 130}, {3, 200}}
	plan, err := Allocate(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || plan.ECCAbsorbed != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	// Two faults in the same 64-bit word: ECC cannot absorb; without
	// spares the array is dead.
	plan, err = Allocate(c, []Fault{{0, 3}, {0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Repairable {
		t.Fatalf("double-fault word should defeat ECC-only: %+v", plan)
	}
}

func TestECCPlusSparesSynergy(t *testing.T) {
	// The paper's Fig. 8(a) argument: ECC soaks the singles, spares
	// handle the rare multi-fault words — together they repair what
	// neither could alone.
	c := cfg()
	c.ECCSingleBit = true
	c.SpareRows, c.SpareCols = 1, 0
	fs := []Fault{
		{0, 3}, {5, 70}, {9, 130}, {20, 200}, {33, 10}, // singles
		{40, 3}, {40, 7}, // a double-fault word
	}
	plan, err := Allocate(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Repairable || plan.ECCAbsorbed != 5 || len(plan.RepairRows) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestAllocateRandomisedAlwaysCovers(t *testing.T) {
	// Property: whenever Allocate claims Repairable, every fault is on
	// a repaired row/column or absorbed by ECC.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := cfg()
		c.ECCSingleBit = trial%2 == 0
		n := rng.Intn(20)
		var fs []Fault
		for i := 0; i < n; i++ {
			fs = append(fs, Fault{Row: rng.Intn(c.Rows), Col: rng.Intn(c.Cols)})
		}
		plan, err := Allocate(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Repairable {
			continue
		}
		rows := map[int]bool{}
		for _, r := range plan.RepairRows {
			rows[r] = true
		}
		cols := map[int]bool{}
		for _, cc := range plan.RepairCols {
			cols[cc] = true
		}
		// Count unexplained faults: not on a spare line; at most one per
		// word may remain if ECC is on.
		perWord := map[[2]int]int{}
		for _, f := range dedupe(fs) {
			if rows[f.Row] || cols[f.Col] {
				continue
			}
			if !c.ECCSingleBit {
				t.Fatalf("trial %d: fault %+v uncovered in repairable plan", trial, f)
			}
			perWord[[2]int{f.Row, f.Col / c.WordBits}]++
		}
		for w, cnt := range perWord {
			if cnt > 1 {
				t.Fatalf("trial %d: word %v has %d unabsorbed faults", trial, w, cnt)
			}
		}
	}
}

func TestRemapper(t *testing.T) {
	c := cfg()
	plan, err := Allocate(c, []Fault{{7, 10}, {7, 20}, {7, 30}, {7, 40}, {7, 50}})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRemapper(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	prow, pcol := rm.Translate(7, 10)
	if prow < c.Rows {
		t.Fatalf("row 7 not redirected: (%d,%d)", prow, pcol)
	}
	prow, pcol = rm.Translate(8, 99)
	if prow != 8 || pcol != 99 {
		t.Fatal("healthy cell translated")
	}
	if r, cc := len(rm.rowMap), len(rm.colMap); r != 1 || cc != 0 {
		t.Fatalf("spares used = %d,%d", r, cc)
	}
}

func TestRemapperOverCapacity(t *testing.T) {
	c := cfg()
	plan := Plan{RepairRows: []int{1, 2, 3, 4, 5}}
	if _, err := NewRemapper(c, plan); err == nil {
		t.Fatal("over-capacity plan accepted")
	}
}
