package vlsi

import (
	"testing"

	"twodcache/internal/ecc"
)

func TestParamsValidation(t *testing.T) {
	bad := []ArrayParams{
		{Bits: 0, AccessBits: 64, Interleave: 1, Ports: 1},
		{Bits: 1024, AccessBits: 0, Interleave: 1, Ports: 1},
		{Bits: 1024, AccessBits: 64, Interleave: 0, Ports: 1},
		{Bits: 1024, AccessBits: 64, Interleave: 1, Ports: 0},
		{Bits: 64, AccessBits: 64, Interleave: 4, Ports: 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestCostSanity(t *testing.T) {
	tech := Default70nm()
	p := ArrayParams{Bits: 64 << 13, AccessBits: 72, Interleave: 2, Ports: 1}
	m, err := Cost(tech, p, Organization{Ndbl: 4, Ndwl: 1, ColMult: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.DelayNS <= 0 || m.EnergyPJ <= 0 || m.AreaMM2 <= 0 {
		t.Fatalf("non-positive metrics: %+v", m)
	}
}

func TestExploreBeatsArbitraryPoint(t *testing.T) {
	tech := Default70nm()
	p := ArrayParams{Bits: 64 << 13, AccessBits: 72, Interleave: 4, Ports: 2}
	for _, obj := range []Objective{DelayOpt, PowerOpt, DelayAreaOpt, BalancedOpt} {
		best, err := Explore(tech, p, obj)
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		ref, err := Cost(tech, p, Organization{Ndbl: 2, Ndwl: 1, ColMult: 1})
		if err != nil {
			t.Fatal(err)
		}
		if score(best, obj) > score(ref, obj)+1e-12 {
			t.Fatalf("%v: explorer worse than arbitrary point", obj)
		}
	}
}

func TestEnergyGrowsWithInterleave(t *testing.T) {
	// Fig. 2 shape: under every objective, read energy is monotonically
	// non-decreasing in the interleave degree.
	tech := Default70nm()
	for _, spec := range []CacheSpec{L1Spec64KB(), L2Spec4MB()} {
		code := ecc.SpecCorrecting("SECDED", spec.DataWordBits, 1)
		for _, obj := range []Objective{DelayOpt, PowerOpt, BalancedOpt} {
			sweep, err := InterleaveSweep(tech, spec, code, 16, obj)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, obj, err)
			}
			if len(sweep) != 5 {
				t.Fatalf("sweep length %d", len(sweep))
			}
			if sweep[0] != 1.0 {
				t.Fatalf("not normalised: %v", sweep[0])
			}
			for i := 1; i < len(sweep); i++ {
				if sweep[i] < sweep[i-1]*0.98 {
					t.Fatalf("%s/%v: energy decreased with interleave: %v", spec.Name, obj, sweep)
				}
			}
		}
	}
}

func TestPowerOptNoWorseThanDelayOpt(t *testing.T) {
	// The power-optimised curve can never grow faster than the
	// delay-optimised one at the same degree (it has strictly more
	// freedom to trade delay for energy).
	tech := Default70nm()
	spec := L1Spec64KB()
	code := ecc.SpecCorrecting("SECDED", 64, 1)
	for d := 1; d <= 16; d *= 2 {
		pd, err := CodedCache(tech, spec, code, d, 0, DelayOpt)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := CodedCache(tech, spec, code, d, 0, PowerOpt)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Array.EnergyPJ > pd.Array.EnergyPJ*1.0001 {
			t.Fatalf("d=%d: power-opt energy %v above delay-opt %v", d, pp.Array.EnergyPJ, pd.Array.EnergyPJ)
		}
	}
}

func TestFig2Asymmetry(t *testing.T) {
	// The paper's central Fig. 2 contrast: for the 64 kB L1 the
	// power-optimised design absorbs interleaving cheaply (small
	// degrees nearly free), while the 4 MB L2's wide 266-bit codewords
	// make even the power-optimised design pay steeply by 16:1.
	tech := Default70nm()
	l1, err := InterleaveSweep(tech, L1Spec64KB(), ecc.SpecCorrecting("SECDED", 64, 1), 16, PowerOpt)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := InterleaveSweep(tech, L2Spec4MB(), ecc.SpecCorrecting("SECDED", 256, 1), 16, PowerOpt)
	if err != nil {
		t.Fatal(err)
	}
	if l1[2] > 1.6 { // 4:1 on L1 should still be cheap
		t.Fatalf("64kB power-opt at 4:1 = %.2f, want <= 1.6", l1[2])
	}
	if l2[4] < 2.5 {
		t.Fatalf("4MB power-opt at 16:1 = %.2f, want >= 2.5", l2[4])
	}
	if l2[4] <= l1[4] {
		t.Fatalf("4MB growth (%.2f) must exceed 64kB growth (%.2f)", l2[4], l1[4])
	}
}

func TestL2InterleaveMoreExpensiveThanL1(t *testing.T) {
	// Fig. 2(c) vs (b): the 4 MB cache's wide words make interleaving
	// relatively costlier under power optimisation than the 64 kB one.
	tech := Default70nm()
	l1, err := InterleaveSweep(tech, L1Spec64KB(), ecc.SpecCorrecting("SECDED", 64, 1), 16, PowerOpt)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := InterleaveSweep(tech, L2Spec4MB(), ecc.SpecCorrecting("SECDED", 256, 1), 16, PowerOpt)
	if err != nil {
		t.Fatal(err)
	}
	if l2[4] <= l1[4] {
		t.Fatalf("4MB power-opt at 16:1 (%.2f) should exceed 64kB (%.2f)", l2[4], l1[4])
	}
}

func TestCodedCacheStorage(t *testing.T) {
	tech := Default70nm()
	spec := L1Spec64KB()
	sec := ecc.SpecCorrecting("SECDED", 64, 1)
	c, err := CodedCache(tech, spec, sec, 2, 0, BalancedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeStorageFrac != 0.125 {
		t.Fatalf("SECDED storage = %v", c.CodeStorageFrac)
	}
	// 2D: EDC8 horizontal + 32 vertical rows adds a few percent extra.
	edc := ecc.SpecEDC(64, 8)
	c2, err := CodedCache(tech, spec, edc, 4, 32, BalancedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if c2.CodeStorageFrac <= 0.125 || c2.CodeStorageFrac > 0.30 {
		t.Fatalf("2D storage = %v", c2.CodeStorageFrac)
	}
	// Word-size mismatch must error.
	if _, err := CodedCache(tech, spec, ecc.SpecEDC(256, 16), 2, 0, BalancedOpt); err == nil {
		t.Fatal("word mismatch accepted")
	}
}

func TestStrongCodesCostMore(t *testing.T) {
	// Fig. 1(c)/Fig. 7 shape: at equal interleave, stronger codes cost
	// more energy and latency.
	tech := Default70nm()
	spec := L1Spec64KB()
	var prevE, prevD float64
	for _, name := range []string{"SECDED", "DECTED", "QECPED", "OECNED"} {
		code, err := ecc.SpecByName(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CodedCache(tech, spec, code, 4, 0, BalancedOpt)
		if err != nil {
			t.Fatal(err)
		}
		if c.AccessEnergyPJ <= prevE {
			t.Fatalf("%s energy %v not above previous %v", name, c.AccessEnergyPJ, prevE)
		}
		if c.TotalDelayNS < prevD {
			t.Fatalf("%s delay %v below previous %v", name, c.TotalDelayNS, prevD)
		}
		prevE, prevD = c.AccessEnergyPJ, c.TotalDelayNS
	}
}

func TestObjectiveStrings(t *testing.T) {
	names := map[Objective]string{
		DelayOpt: "delay-opt", PowerOpt: "power-opt",
		DelayAreaOpt: "delay+area-opt", BalancedOpt: "balanced-opt",
	}
	for o, want := range names {
		if o.String() != want {
			t.Fatalf("%v", o)
		}
	}
}

func TestCostErrorPaths(t *testing.T) {
	tech := Default70nm()
	p := ArrayParams{Bits: 64 << 13, AccessBits: 72, Interleave: 2, Ports: 1}
	cases := []Organization{
		{Ndbl: 0, Ndwl: 1, ColMult: 1},   // invalid division
		{Ndbl: 512, Ndwl: 1, ColMult: 4}, // sub-array too short
		{Ndbl: 1, Ndwl: 64, ColMult: 1},  // sub-array too narrow
	}
	for i, org := range cases {
		if _, err := Cost(tech, p, org); err == nil {
			t.Errorf("case %d accepted: %+v", i, org)
		}
	}
	// Bad params propagate through Explore.
	if _, err := Explore(tech, ArrayParams{}, PowerOpt); err == nil {
		t.Error("empty params accepted")
	}
}

func TestSpecHelpers(t *testing.T) {
	if Objective(99).String() != "unknown" {
		t.Fatal("unknown objective name")
	}
}

func TestInterleaveSweepPropagatesErrors(t *testing.T) {
	tech := Default70nm()
	// A bank smaller than one interleaved row fails validation inside
	// the sweep at high degrees.
	tiny := CacheSpec{Name: "tiny", CapacityBytes: 512, Banks: 1, Ports: 1, DataWordBits: 256}
	code := ecc.SpecCorrecting("SECDED", 256, 1)
	if _, err := InterleaveSweep(tech, tiny, code, 16, PowerOpt); err == nil {
		t.Fatal("tiny cache sweep succeeded")
	}
}
