package experiments

import (
	"math/rand"

	"twodcache/internal/ecc"
	"twodcache/internal/fault"
	"twodcache/internal/twod"
)

// Fig4 walks the recovery algorithm of Fig. 4(b) through one error of
// each class on the paper's 8 kB array and reports which branch ran and
// what it cost — the executable rendition of the paper's flow chart.
// The latency column grounds §4's statement that recovery is
// "similar to a simple BIST march test ... a few hundred or thousand
// cycles".
func Fig4(opt Options) Table {
	t := Table{
		ID:     "fig4",
		Title:  "Fig. 4(b): recovery algorithm walkthrough on the 8kB array (EDC8+Intv4, EDC32)",
		Header: []string{"error injected", "recovery branch", "faulty words", "bits repaired", "latency (array cycles)", "outcome"},
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	scenarios := []struct {
		label  string
		inject func(a *twod.Array)
	}{
		{"single bit", func(a *twod.Array) { a.FlipBit(100, 37) }},
		{"8x8 cluster", func(a *twod.Array) {
			fault.Apply(a, fault.SolidCluster(40, 80, 8, 8))
		}},
		{"32x32 cluster", func(a *twod.Array) {
			fault.Apply(a, fault.SolidCluster(0, 0, 32, 32))
		}},
		{"full row failure", func(a *twod.Array) {
			fault.Apply(a, fault.RowFailure(77, a.RowBits()))
		}},
		{"column failure (stuck-at)", func(a *twod.Array) {
			fault.Apply(a, fault.ColumnStuckAt(rng, 123, a.Rows()))
		}},
		{"40x40 cluster (beyond coverage)", func(a *twod.Array) {
			fault.Apply(a, fault.SolidCluster(0, 0, 40, 40))
		}},
	}
	for _, sc := range scenarios {
		a := twod.MustArray(twod.Config{
			Rows: 256, WordsPerRow: 4,
			Horizontal:     ecc.MustEDC(64, 8),
			VerticalGroups: 32,
			// The walkthrough reproduces Fig. 4 under the paper's
			// declared fault model (clusters/column failures).
			AssumeClusteredFaults: true,
		})
		for r := 0; r < a.Rows(); r++ {
			for w := 0; w < 4; w++ {
				a.WriteUint64(r, w, rng.Uint64())
			}
		}
		sc.inject(a)
		rep := a.Recover()
		outcome := "corrected"
		if !rep.Success {
			outcome = "detected-uncorrectable"
		}
		t.Rows = append(t.Rows, []string{
			sc.label,
			rep.Mode.String(),
			itoa(rep.FaultyWords),
			itoa(rep.BitsFlipped),
			itoa(rep.CyclesEstimate()),
			outcome,
		})
	}
	t.Notes = append(t.Notes,
		"latency = scan reads + correction writes, the BIST-march cost of §4",
		"the beyond-coverage case fails loudly — never a silent miscorrection")
	return t
}
