package experiments

import (
	"strconv"
	"strings"
	"testing"

	"twodcache/internal/sim"
)

func pctVal(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"demo", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig1b(t *testing.T) {
	tab := Fig1b()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// EDC8 and SECDED at 12.5% for 64b; OECNED ~89.1%.
	if tab.Rows[0][1] != "12.5%" || tab.Rows[1][1] != "12.5%" {
		t.Fatalf("EDC8/SECDED overhead: %v", tab.Rows)
	}
	if v := pctVal(t, tab.Rows[4][1]); v < 88 || v < pctVal(t, tab.Rows[2][1]) {
		t.Fatalf("OECNED 64b overhead %v", v)
	}
	// 256b words amortise better: every 256b overhead < 64b overhead
	// for correcting codes.
	for _, r := range tab.Rows[1:] {
		if pctVal(t, r[2]) >= pctVal(t, r[1]) {
			t.Fatalf("%s: 256b overhead not smaller: %v", r[0], r)
		}
	}
}

func TestFig1cMonotone(t *testing.T) {
	tab := Fig1c()
	prev := -1.0
	for _, r := range tab.Rows[1:] { // skip EDC8 (detection-only)
		v := pctVal(t, r[1])
		if v <= prev {
			t.Fatalf("energy overhead not increasing with strength: %v", tab.Rows)
		}
		prev = v
	}
}

func TestFig2Shapes(t *testing.T) {
	tabs := Fig2()
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s rows = %d", tab.ID, len(tab.Rows))
		}
		for _, r := range tab.Rows {
			first, _ := strconv.ParseFloat(r[1], 64)
			last, _ := strconv.ParseFloat(r[5], 64)
			if first != 1.0 {
				t.Fatalf("%s not normalised: %v", tab.ID, r)
			}
			if last < 1.0 {
				t.Fatalf("%s energy decreased with interleaving: %v", tab.ID, r)
			}
		}
	}
}

func TestFig3Coverage(t *testing.T) {
	t.Parallel()
	tab := Fig3(Quick())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// SECDED+Intv4 corrects 1x4 but not 1x32, 32x32, or a row failure.
	sec := tab.Rows[0]
	if sec[3] != "100.0%" || sec[4] == "100.0%" || sec[5] == "100.0%" || sec[6] == "100.0%" {
		t.Fatalf("SECDED row: %v", sec)
	}
	// OECNED+Intv4 corrects anything <= 32 bits wide per row (including
	// the 32x32 box, independently per word) but not a row failure.
	oec := tab.Rows[1]
	if oec[4] != "100.0%" || oec[5] != "100.0%" || oec[6] == "100.0%" {
		t.Fatalf("OECNED row: %v", oec)
	}
	// 2D corrects everything up to 32x32.
	td := tab.Rows[2]
	for _, col := range []int{3, 4, 5, 6} {
		if td[col] != "100.0%" {
			t.Fatalf("2D row: %v", td)
		}
	}
	// Storage ordering: SECDED < 2D << OECNED.
	if !(pctVal(t, sec[1]) < pctVal(t, td[1]) && pctVal(t, td[1]) < pctVal(t, oec[1])) {
		t.Fatalf("storage ordering: %v %v %v", sec[1], td[1], oec[1])
	}
}

func TestTable1(t *testing.T) {
	tab := Table1()
	out := tab.Render()
	for _, want := range []string{"64kB", "16MB", "4MB", "OoO", "in-order"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tab := Fig5(sim.FatConfig(), Quick())
	if len(tab.Rows) != 7 { // 6 workloads + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		for _, c := range r[1:] {
			v := pctVal(t, c)
			if v < -5 || v > 25 {
				t.Fatalf("implausible loss %v in %v", v, r)
			}
		}
	}
}

func TestFig6Quick(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tabs := Fig6(sim.LeanConfig(), Quick())
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	// Every workload must show nonzero L1 extra reads under 2D.
	for _, r := range tabs[0].Rows {
		v, _ := strconv.ParseFloat(r[5], 64)
		if v <= 0 {
			t.Fatalf("no extra reads: %v", r)
		}
	}
}

func TestFig7(t *testing.T) {
	for _, l2 := range []bool{false, true} {
		tab := Fig7(l2, Quick())
		if len(tab.Rows) < 4 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		// 2D (first row) must beat OECNED (4th row) on all three axes.
		td, oec := tab.Rows[0], tab.Rows[3]
		for col := 1; col <= 3; col++ {
			if pctVal(t, td[col]) >= pctVal(t, oec[col]) {
				t.Fatalf("fig7 l2=%v col %d: 2D (%s) not cheaper than OECNED (%s)",
					l2, col, td[col], oec[col])
			}
		}
		// 2D power should be modest: below 200% of the SECDED baseline.
		if v := pctVal(t, td[3]); v > 200 {
			t.Fatalf("2D power %v%% too high", v)
		}
	}
}

func TestFig8a(t *testing.T) {
	tab := Fig8a()
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if pctVal(t, last[1]) > 1 { // Spare_128 dead at 4000 faults
		t.Fatalf("Spare_128 at 4000 faults: %v", last[1])
	}
	if pctVal(t, last[4]) < 90 { // ECC+Spare_32 healthy
		t.Fatalf("ECC+Spare_32 at 4000 faults: %v", last[4])
	}
}

func TestFig8b(t *testing.T) {
	tab := Fig8b()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 2D row stays at 100%.
	for _, c := range tab.Rows[0][1:] {
		if c != "100.0%" {
			t.Fatalf("2D row decayed: %v", tab.Rows[0])
		}
	}
	// Highest HER decays the most by year 5.
	if !(pctVal(t, tab.Rows[3][6]) < pctVal(t, tab.Rows[2][6]) &&
		pctVal(t, tab.Rows[2][6]) < pctVal(t, tab.Rows[1][6])) {
		t.Fatalf("HER ordering violated: %v", tab.Rows)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	opt := Quick()
	vint := AblationVerticalInterleave(opt)
	if len(vint.Rows) != 4 {
		t.Fatalf("vint rows = %d", len(vint.Rows))
	}
	// In-coverage clusters always corrected; beyond-coverage never.
	for _, r := range vint.Rows {
		if r[2] != "100.0%" {
			t.Fatalf("VxW coverage failed: %v", r)
		}
		if r[3] == "100.0%" {
			t.Fatalf("beyond-V coverage unexpectedly full: %v", r)
		}
	}
	hc := AblationHorizontalCode(opt)
	if len(hc.Rows) != 3 {
		t.Fatalf("hcode rows = %d", len(hc.Rows))
	}
	b := AblationBCHBits()
	if len(b.Rows) != 6 {
		t.Fatalf("bch rows = %d", len(b.Rows))
	}
	// Constructed BCH codes never need more bits than the estimate.
	for _, r := range b.Rows {
		got, _ := strconv.Atoi(r[3])
		est, _ := strconv.Atoi(r[4])
		if got > est {
			t.Fatalf("constructed %d > estimate %d: %v", got, est, r)
		}
	}
}

func TestBarChart(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo", Header: []string{"scheme", "overhead"},
		Rows: [][]string{{"A", "12.5%"}, {"B", "89.1%"}, {"C", "25.0%"}},
	}
	c := tab.BarChart(1, 40)
	if !strings.Contains(c, "A") || !strings.Contains(c, "89.1%") {
		t.Fatalf("chart missing content:\n%s", c)
	}
	// B's bar must be the longest.
	lines := strings.Split(strings.TrimSpace(c), "\n")
	count := func(s string) int { return strings.Count(s, "#") }
	if !(count(lines[2]) > count(lines[1]) && count(lines[2]) > count(lines[3])) {
		t.Fatalf("bar lengths wrong:\n%s", c)
	}
	if tab.BarChart(0, 40) != "" || tab.BarChart(9, 40) != "" {
		t.Fatal("invalid column accepted")
	}
	// Non-numeric columns are skipped by Charts.
	mixed := Table{
		Title: "m", Header: []string{"a", "b", "c"},
		Rows: [][]string{{"r", "hello", "3.0"}},
	}
	out := mixed.Charts(20)
	if strings.Contains(out, "hello") {
		t.Fatal("non-numeric column charted")
	}
	if !strings.Contains(out, "3.00") {
		t.Fatal("numeric column missing")
	}
}

func TestFig1bChartRenders(t *testing.T) {
	c := Fig1b().Charts(40)
	if !strings.Contains(c, "OECNED") || !strings.Contains(c, "#") {
		t.Fatalf("fig1b chart:\n%s", c)
	}
}

// TestNewAblationDrivers runs each simulation-backed ablation as a
// parallel subtest, so under -race the eight share the CPUs instead of
// running one after another.
func TestNewAblationDrivers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	opt := Quick()
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"abl-wt", func(t *testing.T) {
			wt := AblationWriteThrough(opt)
			if len(wt.Rows) != 4 {
				t.Fatalf("abl-wt rows = %d", len(wt.Rows))
			}
			// Write-through must carry far more L2 write traffic than 2D
			// write-back on the same system.
			for i := 0; i < len(wt.Rows); i += 2 {
				wb, _ := strconv.ParseFloat(wt.Rows[i][3], 64)
				wtr, _ := strconv.ParseFloat(wt.Rows[i+1][3], 64)
				if wtr < wb*3 {
					t.Fatalf("write-through traffic %v not >> write-back %v", wtr, wb)
				}
			}
		}},
		{"abl-scrub", func(t *testing.T) {
			sc := AblationScrubInterval(opt)
			if len(sc.Rows) != 5 {
				t.Fatalf("abl-scrub rows = %d", len(sc.Rows))
			}
			firstI, _ := strconv.ParseFloat(sc.Rows[0][2], 64)
			lastI, _ := strconv.ParseFloat(sc.Rows[len(sc.Rows)-1][2], 64)
			if lastI < firstI {
				t.Fatalf("longer scrub interval safer: %v vs %v", lastI, firstI)
			}
		}},
		{"abl-bisr", func(t *testing.T) {
			bisr := AblationBISRYield(opt)
			if len(bisr.Rows) != 6 {
				t.Fatalf("abl-bisr rows = %d", len(bisr.Rows))
			}
		}},
		{"abl-err", func(t *testing.T) {
			errT := AblationRecoveryRate(opt)
			if len(errT.Rows) != 4 {
				t.Fatalf("abl-err rows = %d", len(errT.Rows))
			}
			if errT.Rows[0][1] != "0" {
				t.Fatalf("no-injection row has recoveries: %v", errT.Rows[0])
			}
		}},
		{"abl-vcode", func(t *testing.T) {
			vc := AblationVerticalCode(opt)
			if len(vc.Rows) != 2 {
				t.Fatalf("abl-vcode rows = %d", len(vc.Rows))
			}
			// Parity handles clusters; vertical SECDED handles scattered.
			if vc.Rows[0][3] != "100.0%" || vc.Rows[1][5] != "100.0%" {
				t.Fatalf("vcode coverage: %v", vc.Rows)
			}
			if vc.Rows[1][3] == "100.0%" {
				t.Fatalf("vertical SECDED should not cover 32x32 clusters: %v", vc.Rows[1])
			}
		}},
		{"abl-repl", func(t *testing.T) {
			repl := AblationReplicationCache(opt)
			if len(repl.Rows) != 4 {
				t.Fatalf("abl-repl rows = %d", len(repl.Rows))
			}
			small, _ := strconv.ParseFloat(repl.Rows[1][2], 64)
			big, _ := strconv.ParseFloat(repl.Rows[3][2], 64)
			if small <= big {
				t.Fatalf("small replication buffer should spill more: %v vs %v", small, big)
			}
		}},
		{"abl-hintv", func(t *testing.T) {
			hi := AblationHorizontalInterleave(opt)
			if len(hi.Rows) != 3 {
				t.Fatalf("abl-hintv rows = %d", len(hi.Rows))
			}
			for _, r := range hi.Rows {
				if r[3] != "100.0%" {
					t.Fatalf("equal-width combo lost coverage: %v", r)
				}
			}
		}},
		{"abl-miscorrect", func(t *testing.T) {
			mc := AblationMiscorrection(opt)
			if len(mc.Rows) != 5 {
				t.Fatalf("abl-miscorrect rows = %d", len(mc.Rows))
			}
			// Nothing silently corrupts at w=1; SECDED does at w=3.
			for _, r := range mc.Rows {
				if r[1] != "0.0%" {
					t.Fatalf("w=1 silent corruption in %v", r)
				}
			}
			if mc.Rows[1][3] == "0.0%" {
				t.Fatalf("SECDED at w=3 should miscorrect: %v", mc.Rows[1])
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.check(t)
		})
	}
}

func TestFig4Walkthrough(t *testing.T) {
	tab := Fig4(Quick())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// All in-coverage scenarios corrected; the beyond-coverage one
	// detected.
	for _, r := range tab.Rows[:5] {
		if r[5] != "corrected" {
			t.Fatalf("in-coverage scenario failed: %v", r)
		}
	}
	if tab.Rows[5][5] != "detected-uncorrectable" {
		t.Fatalf("beyond-coverage outcome: %v", tab.Rows[5])
	}
	// Latency stays in the paper's "few hundred or thousand cycles".
	for _, r := range tab.Rows {
		lat, _ := strconv.Atoi(r[4])
		if lat < 500 || lat > 10000 {
			t.Fatalf("latency %d out of the BIST-march range: %v", lat, r)
		}
	}
	// The row-failure scenario must use row reconstruction and the
	// column failure the column branch.
	if tab.Rows[3][1] != "row-reconstruction" || tab.Rows[4][1] != "column-localisation" {
		t.Fatalf("branches: %v / %v", tab.Rows[3], tab.Rows[4])
	}
}
