package yield

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"Spare_128":      {SpareRows: 128},
		"ECC Only":       {ECC: true},
		"ECC + Spare_16": {ECC: true, SpareRows: 16},
	}
	for want, pol := range cases {
		if got := pol.String(); got != want {
			t.Errorf("%+v = %q, want %q", pol, got, want)
		}
	}
}

func TestYieldBoundaries(t *testing.T) {
	g := Geometry16MBL2()
	if y := Yield(g, 0, Policy{}); y != 1 {
		t.Fatalf("zero faults yield = %v", y)
	}
	if y := Yield(g, -5, Policy{ECC: true}); y != 1 {
		t.Fatalf("negative faults yield = %v", y)
	}
}

func TestYieldMonotoneInFaults(t *testing.T) {
	g := Geometry16MBL2()
	for _, pol := range []Policy{{SpareRows: 128}, {ECC: true}, {ECC: true, SpareRows: 16}} {
		prev := 1.0
		for _, n := range []int{0, 400, 800, 1600, 2400, 3200, 4000} {
			y := Yield(g, n, pol)
			if y > prev+1e-9 {
				t.Fatalf("%v: yield increased at %d faults (%v > %v)", pol, n, y, prev)
			}
			if y < 0 || y > 1 {
				t.Fatalf("%v: yield out of range %v", pol, y)
			}
			prev = y
		}
	}
}

func TestFig8aOrdering(t *testing.T) {
	// At a moderate fault count, the paper's ordering holds:
	// Spare_128 << ECC Only < ECC+Spare_16 <= ECC+Spare_32 ~ 1.
	g := Geometry16MBL2()
	n := 2400
	spare := Yield(g, n, Policy{SpareRows: 128})
	eccOnly := Yield(g, n, Policy{ECC: true})
	ecc16 := Yield(g, n, Policy{ECC: true, SpareRows: 16})
	ecc32 := Yield(g, n, Policy{ECC: true, SpareRows: 32})
	if spare > 0.01 {
		t.Fatalf("Spare_128 at %d faults = %v, want ~0", n, spare)
	}
	if !(eccOnly < ecc16 && ecc16 <= ecc32) {
		t.Fatalf("ordering violated: %v %v %v", eccOnly, ecc16, ecc32)
	}
	if ecc32 < 0.95 {
		t.Fatalf("ECC+Spare_32 at %d faults = %v, want ~1", n, ecc32)
	}
}

func TestSpareOnlyDiesEarly(t *testing.T) {
	// With 128 spares and no ECC, yield collapses once faults clearly
	// exceed the spare count (the paper's "falls quickly" curve).
	g := Geometry16MBL2()
	if y := Yield(g, 100, Policy{SpareRows: 128}); y < 0.95 {
		t.Fatalf("100 faults vs 128 spares: yield = %v", y)
	}
	if y := Yield(g, 400, Policy{SpareRows: 128}); y > 0.01 {
		t.Fatalf("400 faults vs 128 spares: yield = %v", y)
	}
}

func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	// Use a small geometry so the Monte Carlo converges quickly.
	g := Geometry{Words: 4096, WordBits: 72}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		faults int
		pol    Policy
	}{
		{50, Policy{ECC: true, SpareRows: 0}},
		{120, Policy{ECC: true, SpareRows: 2}},
		{60, Policy{SpareRows: 64}},
	} {
		an := Yield(g, tc.faults, tc.pol)
		mc := YieldMonteCarlo(rng, g, tc.faults, tc.pol, 4000)
		if math.Abs(an-mc) > 0.05 {
			t.Fatalf("%v faults=%d: analytic %v vs MC %v", tc.pol, tc.faults, an, mc)
		}
	}
}

func TestReliabilityBasics(t *testing.T) {
	cfg := ReliabilityConfig{
		Caches:        10,
		Geometry:      Geometry16MBL2(),
		FITPerMb:      1000,
		HardErrorRate: 0.00001, // 0.001%
	}
	if p := cfg.SuccessProbability(0); p != 1 {
		t.Fatalf("P(0y) = %v", p)
	}
	p1 := cfg.SuccessProbability(1)
	p5 := cfg.SuccessProbability(5)
	if !(p5 < p1 && p1 < 1) {
		t.Fatalf("not declining: %v %v", p1, p5)
	}
	// 2D coding keeps success at 1 regardless.
	cfg.TwoD = true
	if p := cfg.SuccessProbability(5); p != 1 {
		t.Fatalf("2D P(5y) = %v", p)
	}
}

func TestReliabilityHEROrdering(t *testing.T) {
	// Fig. 8(b): higher hard-error rates decay faster.
	base := ReliabilityConfig{Caches: 10, Geometry: Geometry16MBL2(), FITPerMb: 1000}
	her := []float64{0.000005, 0.00001, 0.00005} // 0.0005%..0.005%
	var prev = 1.0
	for _, h := range her {
		cfg := base
		cfg.HardErrorRate = h
		p := cfg.SuccessProbability(5)
		if p >= prev {
			t.Fatalf("HER=%v: P=%v not below %v", h, p, prev)
		}
		prev = p
	}
	// The highest HER must show a substantial 5-year failure risk (the
	// paper's argument that ECC must not be spent on hard errors).
	if prev > 0.9 {
		t.Fatalf("HER=0.005%%: P(5y) = %v, want substantial decay", prev)
	}
}

func TestReliabilityCurveLength(t *testing.T) {
	cfg := ReliabilityConfig{Caches: 10, Geometry: Geometry16MBL2(), FITPerMb: 1000, HardErrorRate: 0.00001}
	c := cfg.ReliabilityCurve(5)
	if len(c) != 6 || c[0] != 1 {
		t.Fatalf("curve = %v", c)
	}
	for i := 1; i < len(c); i++ {
		if c[i] > c[i-1] {
			t.Fatal("curve not monotone")
		}
	}
}
