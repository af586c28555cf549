package twodcache

import (
	"strings"
	"testing"
)

func TestPublicArrayRoundTrip(t *testing.T) {
	a := NewPaperArray()
	const d = 0xCAFEBABE12345678
	a.WriteUint64(10, 1, d)
	got, st := a.ReadUint64(10, 1)
	if st != ReadClean || got != d {
		t.Fatalf("read %#x status %v", got, st)
	}
}

func TestPublicArrayRecovers32x32(t *testing.T) {
	a := NewPaperArray()
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, uint64(r*4+w)*0x9E3779B9)
		}
	}
	for r := 100; r < 132; r++ {
		for c := 50; c < 82; c++ {
			a.FlipBit(r, c)
		}
	}
	rep := a.Recover()
	if !rep.Success {
		t.Fatalf("recovery failed: %+v", rep)
	}
	got, st := a.ReadUint64(101, 0)
	if st != ReadClean || got != uint64(101*4)*0x9E3779B9 {
		t.Fatalf("post-recovery read wrong: %#x, %v", got, st)
	}
}

func TestPublicCodes(t *testing.T) {
	for _, mk := range []func(int) (Code, error){NewDECTED, NewQECPED, NewOECNED} {
		c, err := mk(64)
		if err != nil {
			t.Fatal(err)
		}
		n := c.DataBits() + c.CheckBits()
		cw := MakeCodeword(make([]uint64, (n+63)/64), n)
		c.EncodeInto(cw, MakeCodeword([]uint64{42}, 64))
		if res, _ := c.DecodeInPlace(cw); res != Clean {
			t.Fatalf("%s clean decode: %v", c.Name(), res)
		}
	}
	e, err := NewEDC(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.CheckBits() != 8 {
		t.Fatal("EDC8 check bits")
	}
	s, err := NewSECDED(64)
	if err != nil {
		t.Fatal(err)
	}
	if s.CheckBits() != 8 {
		t.Fatal("SECDED check bits")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(Workloads()) != 6 {
		t.Fatal("want 6 workloads")
	}
	if _, err := Workload("OLTP"); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPublicCMPRun(t *testing.T) {
	wl, _ := Workload("Web")
	r, err := RunCMP(FatCMP(), Protection{L1TwoD: true, PortStealing: true}, wl, 1, 5000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 {
		t.Fatal("no progress")
	}
}

func TestPublicYield(t *testing.T) {
	g := YieldGeometry{Words: 1 << 21, WordBits: 72}
	y := CacheYield(g, 2400, YieldPolicy{ECC: true, SpareRows: 32})
	if y < 0.9 {
		t.Fatalf("yield = %v", y)
	}
	rel := FieldReliability{Caches: 10, Geometry: g, FITPerMb: 1000, HardErrorRate: 1e-5}
	if p := rel.SuccessProbability(5); p >= 1 || p <= 0 {
		t.Fatalf("reliability = %v", p)
	}
}

func TestExperimentDispatch(t *testing.T) {
	// Analytic experiments run instantly; check dispatch and rendering.
	for _, id := range []string{"fig1b", "fig1c", "fig2", "tab1", "fig7a", "fig7b", "fig8a", "fig8b", "abl-bch"} {
		tabs, err := Experiment(id, QuickOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			t.Fatalf("%s: empty result", id)
		}
		if !strings.Contains(tabs[0].Render(), tabs[0].ID) {
			t.Fatalf("%s: render missing id", id)
		}
	}
	if _, err := Experiment("fig99", QuickOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(ExperimentIDs()) != 26 {
		t.Fatalf("experiment ids = %d", len(ExperimentIDs()))
	}
}
