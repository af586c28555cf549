package fault

import (
	"fmt"
	"math/rand"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
	"twodcache/internal/twod"
)

// Instance is one freshly-prepared protected array under test.
type Instance interface {
	// Target exposes the raw bit-flip surface for injection.
	Target() Target
	// Repair attempts correction and reports whether the array contents
	// exactly match the pre-injection golden state afterwards.
	Repair() bool
}

// Scheme builds test instances of a particular protection configuration.
type Scheme interface {
	// Name identifies the scheme, e.g. "2D(EDC8+Intv4,EDC32)".
	Name() string
	// StorageOverhead is the check-bit storage cost as a fraction of
	// data bits (vertical parity rows included where applicable).
	StorageOverhead() float64
	// New prepares a randomly-filled instance.
	New(rng *rand.Rand) Instance
}

// --- 2D scheme ---------------------------------------------------------

// TwoDScheme builds twod.Array instances.
type TwoDScheme struct {
	// Label overrides the generated name when non-empty.
	Label string
	// Cfg is the array configuration to instantiate.
	Cfg twod.Config
}

// Name returns the scheme label.
func (s TwoDScheme) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("2D(%s+Intv%d,V%d)", s.Cfg.Horizontal.Name(), s.Cfg.WordsPerRow, s.Cfg.VerticalGroups)
}

// StorageOverhead accounts both the horizontal check bits and the V
// vertical parity rows.
func (s TwoDScheme) StorageOverhead() float64 {
	h := s.Cfg.Horizontal
	horiz := float64(h.CheckBits()) / float64(h.DataBits())
	vert := float64(s.Cfg.VerticalGroups) / float64(s.Cfg.Rows)
	// Vertical rows span the whole physical row (data+check bits), so
	// their relative cost applies to the full codeword width.
	cwScale := float64(h.DataBits()+h.CheckBits()) / float64(h.DataBits())
	return horiz + vert*cwScale
}

type twoDInstance struct {
	arr    *twod.Array
	golden *bitvec.Matrix
}

// New prepares a randomly-filled 2D array instance. Campaigns measure
// the paper's coverage claims under its declared fault model (column
// failures and contiguous clusters), so the instance enables the
// fault-model-trusting column solve (twod.Config.AssumeClusteredFaults)
// regardless of the caller's setting; online caches keep the strict
// default.
func (s TwoDScheme) New(rng *rand.Rand) Instance {
	cfg := s.Cfg
	cfg.AssumeClusteredFaults = true
	a := twod.MustArray(cfg)
	k := s.Cfg.Horizontal.DataBits()
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < s.Cfg.WordsPerRow; w++ {
			a.WriteUint64(r, w, randUint64(rng, k))
		}
	}
	return &twoDInstance{arr: a, golden: a.SnapshotData()}
}

func (i *twoDInstance) Target() Target { return i.arr }

func (i *twoDInstance) Repair() bool {
	rep := i.arr.Recover()
	if !rep.Success {
		return false
	}
	return len(i.arr.SnapshotData().Diff(i.golden)) == 0
}

// --- conventional scheme -----------------------------------------------

// ConventionalScheme builds per-word-code-only baselines
// (e.g. SECDED+Intv4, OECNED+Intv4).
type ConventionalScheme struct {
	// Label overrides the generated name when non-empty.
	Label string
	// Rows and WordsPerRow fix the geometry.
	Rows, WordsPerRow int
	// Code is the per-word code.
	Code ecc.Code
}

// Name returns the scheme label.
func (s ConventionalScheme) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("%s+Intv%d", s.Code.Name(), s.WordsPerRow)
}

// StorageOverhead returns the per-word check-bit cost.
func (s ConventionalScheme) StorageOverhead() float64 {
	return ecc.StorageOverhead(s.Code)
}

type convInstance struct {
	arr    *twod.ConventionalArray
	golden *bitvec.Matrix
}

// New prepares a randomly-filled conventional array instance.
func (s ConventionalScheme) New(rng *rand.Rand) Instance {
	a := twod.MustConventionalArray(s.Rows, s.WordsPerRow, s.Code)
	for r := 0; r < s.Rows; r++ {
		for w := 0; w < s.WordsPerRow; w++ {
			a.WriteUint64(r, w, randUint64(rng, s.Code.DataBits()))
		}
	}
	return &convInstance{arr: a, golden: a.SnapshotData()}
}

func (i *convInstance) Target() Target { return i.arr }

func (i *convInstance) Repair() bool {
	_, unc := i.arr.Scrub()
	if unc > 0 {
		return false
	}
	return len(i.arr.SnapshotData().Diff(i.golden)) == 0
}

// --- coverage campaign ---------------------------------------------------

// CoverageCell is the measured correction rate for one error footprint.
type CoverageCell struct {
	// H and W are the injected cluster bounds (rows x physical columns).
	H, W int
	// Trials and Successes count campaign outcomes.
	Trials, Successes int
}

// Rate returns the success fraction.
func (c CoverageCell) Rate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// CoverageMatrix measures a scheme's correction rate over a grid of
// cluster footprints, injecting each at random positions.
//
// Each (h, w) cell runs on its own rng, seeded from one base draw off
// the caller's rng mixed with the cell's footprint, so a cell's trial
// sequence depends only on the incoming seed and (h, w) — adding,
// removing, or reordering grid entries never perturbs the other cells'
// results. (Previously all cells shared the caller's rng, so every
// cell's outcome depended on the entire grid before it.)
func CoverageMatrix(s Scheme, rng *rand.Rand, heights, widths []int, trials int) []CoverageCell {
	base := rng.Int63()
	var out []CoverageCell
	for _, h := range heights {
		for _, w := range widths {
			cellRng := rand.New(rand.NewSource(cellSeed(base, h, w)))
			cell := CoverageCell{H: h, W: w}
			for tr := 0; tr < trials; tr++ {
				inst := s.New(cellRng)
				t := inst.Target()
				if h > t.Rows() || w > t.RowBits() {
					continue
				}
				r0 := cellRng.Intn(t.Rows() - h + 1)
				c0 := cellRng.Intn(t.RowBits() - w + 1)
				Apply(t, SolidCluster(r0, c0, h, w))
				cell.Trials++
				if inst.Repair() {
					cell.Successes++
				}
			}
			out = append(out, cell)
		}
	}
	return out
}

// DeriveSeed mixes a base seed with a stream index through the
// splitmix64 finalizer, so consumers that need many independent
// deterministic rng streams (per-cell campaign rngs, per-client replay
// traces, storm generators) can derive uncorrelated sub-seeds from one
// user-visible seed instead of sharing a single rand.Source.
func DeriveSeed(base int64, stream uint64) int64 {
	z := uint64(base) ^ stream
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// cellSeed derives the per-cell rng seed from the cell footprint, so
// nearby (h, w) pairs land on uncorrelated streams.
func cellSeed(base int64, h, w int) int64 {
	return DeriveSeed(base, uint64(h)<<32^uint64(w))
}

// randUint64 draws a k-bit (k <= 64) data word, one rng.Intn(2) per
// bit.
func randUint64(rng *rand.Rand, k int) uint64 {
	var v uint64
	for i := 0; i < k; i++ {
		v |= uint64(rng.Intn(2)) << uint(i)
	}
	return v
}

// --- vertical-SECDED scheme ---------------------------------------------

// VSECDEDScheme builds the alternative vertical-ECC design point
// (twod.VSECDEDArray): SECDED down the columns instead of interleaved
// parity rows.
type VSECDEDScheme struct {
	// Label overrides the generated name when non-empty.
	Label string
	// Rows, WordsPerRow fix the geometry; Horizontal is the per-word code.
	Rows, WordsPerRow int
	Horizontal        ecc.HorizontalCode
}

// Name returns the scheme label.
func (s VSECDEDScheme) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return fmt.Sprintf("2D(%s+Intv%d,vSECDED)", s.Horizontal.Name(), s.WordsPerRow)
}

// StorageOverhead accounts the horizontal check bits plus the vertical
// SECDED check rows.
func (s VSECDEDScheme) StorageOverhead() float64 {
	h := s.Horizontal
	horiz := float64(h.CheckBits()) / float64(h.DataBits())
	a := twod.MustVSECDEDArray(s.Rows, s.WordsPerRow, h)
	cwScale := float64(h.DataBits()+h.CheckBits()) / float64(h.DataBits())
	return horiz + float64(a.CheckRows())/float64(s.Rows)*cwScale
}

type vsecInstance struct {
	arr    *twod.VSECDEDArray
	golden *bitvec.Matrix
}

// New prepares a randomly-filled instance.
func (s VSECDEDScheme) New(rng *rand.Rand) Instance {
	a := twod.MustVSECDEDArray(s.Rows, s.WordsPerRow, s.Horizontal)
	for r := 0; r < s.Rows; r++ {
		for w := 0; w < s.WordsPerRow; w++ {
			a.WriteUint64(r, w, randUint64(rng, s.Horizontal.DataBits()))
		}
	}
	return &vsecInstance{arr: a, golden: a.SnapshotData()}
}

func (i *vsecInstance) Target() Target { return i.arr }

func (i *vsecInstance) Repair() bool {
	if !i.arr.Recover().Success {
		return false
	}
	return len(i.arr.SnapshotData().Diff(i.golden)) == 0
}
