// Package yield implements the paper's manufacturability and field
// reliability models (§5.2, Fig. 8): a Stapper-style random-defect
// yield model for caches repaired by spare rows and/or in-line ECC, and
// a FIT-driven soft-error reliability model quantifying why ECC should
// not be spent on hard errors unless multi-bit (2D) protection backs it
// up.
package yield

import (
	"fmt"
	"math"
	"math/rand"

	"twodcache/internal/stats"
)

// Geometry describes the protected memory for yield purposes.
type Geometry struct {
	// Words is the number of ECC words in the array.
	Words int
	// WordBits is the codeword width in bits (data + check); defects
	// anywhere in the codeword count against the word.
	WordBits int
}

// Bits returns the total cell count.
func (g Geometry) Bits() int { return g.Words * g.WordBits }

// Geometry16MBL2 returns the paper's 16 MB L2 with (72,64) SECDED words.
func Geometry16MBL2() Geometry {
	return Geometry{Words: 16 << 20 * 8 / 64, WordBits: 72}
}

// Policy describes the repair resources available.
type Policy struct {
	// ECC enables in-line single-bit-per-word correction.
	ECC bool
	// SpareRows is the number of spare rows available for remapping
	// words the ECC cannot absorb.
	SpareRows int
}

// String names the policy in the paper's Fig. 8 style.
func (p Policy) String() string {
	switch {
	case p.ECC && p.SpareRows > 0:
		return fmt.Sprintf("ECC + Spare_%d", p.SpareRows)
	case p.ECC:
		return "ECC Only"
	default:
		return fmt.Sprintf("Spare_%d", p.SpareRows)
	}
}

// Yield returns the probability that a die with the given number of
// (uniformly distributed) failing cells is shippable under the policy:
//
//   - without ECC, every word containing >= 1 defect must be remapped;
//   - with ECC, only words containing >= 2 defects need a spare (the
//     ECC absorbs singles in-line);
//   - the die ships if the number of such words is <= SpareRows.
//
// This follows Stapper & Lee's synergistic fault-tolerance analysis
// (the paper's ref [46]) with per-word defect counts approximated as
// independent Poisson(faults/Words).
func Yield(g Geometry, faults int, pol Policy) float64 {
	if faults < 0 {
		return 1
	}
	lambda := float64(faults) / float64(g.Words)
	if pol.ECC {
		// Words with >= 2 defects are rare, nearly-independent events:
		// the Poisson/binomial approximation is accurate here.
		pNeedsSpare := 1 - math.Exp(-lambda)*(1+lambda)
		return stats.BinomialTailLE(g.Words, pNeedsSpare, pol.SpareRows)
	}
	// Without ECC every occupied word needs a spare. The number of
	// distinct occupied words follows the classical occupancy
	// distribution, which is far more concentrated than independent
	// per-word trials (at most `faults` words can be occupied); use its
	// exact mean and variance with a normal approximation.
	w := float64(g.Words)
	n := float64(faults)
	q1 := math.Exp(n * math.Log1p(-1/w))
	q2 := math.Exp(n * math.Log1p(-2/w))
	mean := w * (1 - q1)
	variance := w*q1 + w*(w-1)*q2 - w*w*q1*q1
	if variance < 1e-12 {
		if mean <= float64(pol.SpareRows) {
			return 1
		}
		return 0
	}
	z := (float64(pol.SpareRows) + 0.5 - mean) / math.Sqrt(variance)
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// YieldMonteCarlo estimates the same probability by direct simulation:
// faults cells are placed uniformly at random and the words needing
// spares are counted. It validates the analytic model.
func YieldMonteCarlo(rng *rand.Rand, g Geometry, faults int, pol Policy, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	ok := 0
	counts := make(map[int]int, faults)
	for tr := 0; tr < trials; tr++ {
		for k := range counts {
			delete(counts, k)
		}
		for i := 0; i < faults; i++ {
			w := rng.Intn(g.Words)
			counts[w]++
		}
		need := 0
		for _, c := range counts {
			if pol.ECC {
				if c >= 2 {
					need++
				}
			} else {
				need++
			}
		}
		if need <= pol.SpareRows {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
