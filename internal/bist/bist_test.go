package bist

import (
	"math/rand"
	"testing"

	"twodcache/internal/redundancy"
)

func TestCleanArrayPassesAllAlgorithms(t *testing.T) {
	if res := Run(MustFaultyArray(16, 32), MarchCMinus()); !res.Passed() {
		t.Fatalf("March C- failed on a clean array: %d fails", len(res.Fails))
	}
}

func TestOperationCounts(t *testing.T) {
	// March C- is 10N.
	if got, want := Run(MustFaultyArray(16, 32), MarchCMinus()).Operations, 10*16*32; got != want {
		t.Fatalf("March C-: %d ops, want %d", got, want)
	}
}

func TestDetectsStuckAtFaults(t *testing.T) {
	for _, kind := range []FaultKind{StuckAt0, StuckAt1} {
		a := MustFaultyArray(16, 32)
		if err := a.Inject(CellFault{Row: 5, Col: 17, Kind: kind}); err != nil {
			t.Fatal(err)
		}
		cells := Run(a, MarchCMinus()).FailingCells()
		if len(cells) != 1 || cells[0] != [2]int{5, 17} {
			t.Fatalf("%v: detected %v", kind, cells)
		}
	}
}

func TestDetectsTransitionFaults(t *testing.T) {
	// March C- catches both polarities.
	for _, kind := range []FaultKind{TransitionUp, TransitionDown} {
		a := MustFaultyArray(8, 8)
		_ = a.Inject(CellFault{Row: 3, Col: 4, Kind: kind})
		if Run(a, MarchCMinus()).Passed() {
			t.Fatalf("March C- missed a %v fault", kind)
		}
	}
}

func TestFaultInjectionBounds(t *testing.T) {
	a := MustFaultyArray(4, 4)
	if err := a.Inject(CellFault{Row: 4, Col: 0}); err == nil {
		t.Fatal("out-of-bounds fault accepted")
	}
	if !Run(a, MarchCMinus()).Passed() {
		t.Fatal("a rejected injection left a fault")
	}
	if _, err := NewFaultyArray(0, 4); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestFaultKindStrings(t *testing.T) {
	names := map[FaultKind]string{
		StuckAt0: "stuck-at-0", StuckAt1: "stuck-at-1",
		TransitionUp: "transition-up", TransitionDown: "transition-down",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}

func TestMarchDetectsManyRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := MustFaultyArray(64, 128)
	want := map[[2]int]bool{}
	for i := 0; i < 40; i++ {
		r, c := rng.Intn(64), rng.Intn(128)
		kind := FaultKind(rng.Intn(4))
		_ = a.Inject(CellFault{Row: r, Col: c, Kind: kind})
		want[[2]int{r, c}] = true
	}
	res := Run(a, MarchCMinus())
	got := map[[2]int]bool{}
	for _, c := range res.FailingCells() {
		got[c] = true
	}
	for cell := range got {
		if !want[cell] {
			t.Fatalf("false positive at %v", cell)
		}
	}
	// March C- detects all stuck-at and transition faults.
	for cell := range want {
		if !got[cell] {
			t.Fatalf("missed fault at %v", cell)
		}
	}
}

func TestSelfRepairSimple(t *testing.T) {
	a := MustFaultyArray(64, 256)
	_ = a.Inject(CellFault{Row: 3, Col: 10, Kind: StuckAt1})
	_ = a.Inject(CellFault{Row: 40, Col: 200, Kind: StuckAt0})
	cfg := redundancy.Config{Rows: 64, Cols: 256, SpareRows: 2, SpareCols: 2, WordBits: 64}
	out, err := SelfRepair(a, cfg, MarchCMinus())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Detected) != 2 {
		t.Fatalf("detected %v", out.Detected)
	}
	if !out.Plan.Repairable || !out.Repaired {
		t.Fatalf("outcome %+v", out)
	}
}

func TestSelfRepairRowFailure(t *testing.T) {
	a := MustFaultyArray(64, 256)
	for c := 0; c < 256; c += 3 {
		_ = a.Inject(CellFault{Row: 20, Col: c, Kind: StuckAt1})
	}
	cfg := redundancy.Config{Rows: 64, Cols: 256, SpareRows: 1, SpareCols: 2, WordBits: 64}
	out, err := SelfRepair(a, cfg, MarchCMinus())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Repaired || len(out.Plan.RepairRows) != 1 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestSelfRepairUnrepairable(t *testing.T) {
	a := MustFaultyArray(32, 128)
	// Three damaged rows, one spare row, no columns.
	for _, r := range []int{5, 10, 15} {
		for c := 0; c < 20; c++ {
			_ = a.Inject(CellFault{Row: r, Col: c * 6, Kind: StuckAt1})
		}
	}
	cfg := redundancy.Config{Rows: 32, Cols: 128, SpareRows: 1, SpareCols: 0, WordBits: 64}
	out, err := SelfRepair(a, cfg, MarchCMinus())
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Repairable || out.Repaired {
		t.Fatalf("should be unrepairable: %+v", out)
	}
}

func TestSelfRepairWithECC(t *testing.T) {
	// Scattered singles absorbed by ECC; one heavy row takes the spare.
	a := MustFaultyArray(64, 256)
	_ = a.Inject(CellFault{Row: 1, Col: 5, Kind: StuckAt1})
	_ = a.Inject(CellFault{Row: 9, Col: 100, Kind: StuckAt0})
	for c := 0; c < 30; c++ {
		_ = a.Inject(CellFault{Row: 30, Col: c * 8, Kind: StuckAt1})
	}
	cfg := redundancy.Config{
		Rows: 64, Cols: 256, SpareRows: 1, SpareCols: 0,
		WordBits: 64, ECCSingleBit: true,
	}
	out, err := SelfRepair(a, cfg, MarchCMinus())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Plan.Repairable || !out.Repaired {
		t.Fatalf("outcome %+v", out)
	}
	if out.Plan.ECCAbsorbed != 2 {
		t.Fatalf("ECC absorbed %d, want 2", out.Plan.ECCAbsorbed)
	}
}
