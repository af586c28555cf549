// Package twodcache is a library-grade reproduction of "Multi-bit Error
// Tolerant Caches Using Two-Dimensional Error Coding" (Kim,
// Hardavellas, Mai, Falsafi, Hoe — MICRO-40, 2007).
//
// The core idea: protect a memory array with a light-weight horizontal
// per-word code (interleaved parity EDCn, or Hsiao SECDED) that is
// checked on every read and used for *detection*, plus interleaved
// vertical parity rows maintained in the background (via a
// read-before-write delta on every store) that are consulted only by
// the rare recovery process for *correction*. The combination corrects
// clustered errors up to 32x32 bits — including row and column
// failures — at a fraction of the cost of conventional multi-bit ECC.
//
// This package is the public façade over the implementation packages:
//
//   - NewArray and ArrayConfig build 2D-protected arrays with explicit
//     storage, fault injection, and the Fig. 4(b) recovery algorithm;
//   - NewEDC, NewSECDED, NewDECTED, NewQECPED, NewOECNED construct the
//     per-word codes (the latter three are real shortened BCH codes),
//     which encode and decode Codeword views built by MakeCodeword;
//   - FatCMP, LeanCMP, RunCMP and MeasureIPCLoss drive the cycle-level
//     chip-multiprocessor simulator behind the paper's Fig. 5 and 6;
//   - CacheYield and FieldReliability expose the Fig. 8 models;
//   - Experiment runs any table/figure reproduction by identifier.
package twodcache

import (
	"fmt"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
	"twodcache/internal/experiments"
	"twodcache/internal/sim"
	"twodcache/internal/twod"
	"twodcache/internal/workload"
	"twodcache/internal/yield"
)

// --- codeword views ----------------------------------------------------

// Codeword is an n-bit view over caller-owned uint64 words (bit i is bit
// i%64 of word i/64), the unit the per-word codes encode and decode.
// Code.EncodeInto writes a DataBits-bit data view's codeword into a
// (DataBits+CheckBits)-bit view, and Code.DecodeInPlace checks and, for
// correcting codes, repairs one in place.
type Codeword = bitvec.Codeword

// MakeCodeword returns an n-bit view over buf. It panics if buf holds
// fewer than (n+63)/64 words.
func MakeCodeword(buf []uint64, n int) Codeword { return bitvec.MakeCodeword(buf, n) }

// --- per-word codes ----------------------------------------------------

// Code is a systematic per-word error code over Codeword views
// (EncodeInto, then DecodeInPlace to detect or correct).
type Code = ecc.Code

// HorizontalCode is the subset of codes usable as the horizontal
// dimension of a 2D-protected array (EDCn and SECDED).
type HorizontalCode = ecc.HorizontalCode

// Decode outcomes for all per-word codes.
const (
	Clean     = ecc.Clean
	Corrected = ecc.Corrected
	Detected  = ecc.Detected
)

// NewEDC returns the paper's interleaved-parity detection code EDCn
// over k data bits: n check bits detecting all contiguous <= n-bit
// errors.
func NewEDC(k, n int) (HorizontalCode, error) { return ecc.NewEDC(k, n) }

// NewSECDED returns a Hsiao single-error-correct double-error-detect
// code over k data bits ((72,64) for k=64, (266,256) for k=256).
func NewSECDED(k int) (HorizontalCode, error) { return ecc.NewSECDED(k) }

// NewSECDEDSbED returns a SECDED code extended with single-byte-error
// detection over b-bit bytes (b = 4 or 8) — the paper's low-overhead
// route to multi-bit detection with in-line correction (§3). The
// classic b=4 construction fits in plain SECDED's check-bit count.
func NewSECDEDSbED(k, b int) (HorizontalCode, error) { return ecc.NewSECDEDSbED(k, b) }

// NewDECTED returns a double-error-correct, triple-error-detect BCH
// code over k data bits.
func NewDECTED(k int) (Code, error) { return ecc.NewDECTED(k) }

// NewQECPED returns a quad-error-correct, penta-error-detect BCH code.
func NewQECPED(k int) (Code, error) { return ecc.NewQECPED(k) }

// NewOECNED returns an octal-error-correct, nona-error-detect BCH code.
func NewOECNED(k int) (Code, error) { return ecc.NewOECNED(k) }

// --- the 2D-protected array (the paper's contribution) ------------------

// ArrayConfig parameterises a 2D-protected array.
type ArrayConfig = twod.Config

// Array is a memory array protected by 2D error coding, with explicit
// check-bit and vertical-parity storage, raw fault injection
// (FlipBit/FlipParityBit) and the BIST-style recovery process. Words
// are at most 64 bits wide and are read and written as uint64
// (ReadUint64, WriteUint64); callers serialise access to one array.
type Array = twod.Array

// RecoveryReport summarises one recovery invocation.
type RecoveryReport = twod.RecoveryReport

// ReadStatus reports how a ReadUint64 or WriteUint64 completed.
type ReadStatus = twod.ReadStatus

// Read outcomes.
const (
	ReadClean           = twod.ReadClean
	ReadCorrectedInline = twod.ReadCorrectedInline
	ReadRecovered       = twod.ReadRecovered
	ReadUncorrectable   = twod.ReadUncorrectable
)

// NewArray builds a zero-initialised 2D-protected array.
func NewArray(cfg ArrayConfig) (*Array, error) { return twod.NewArray(cfg) }

// NewPaperArray builds the paper's running example (Fig. 3(c)): an 8 kB
// array of 256 rows holding four 4-way-interleaved (72,64) EDC8
// codewords per row, with 32 vertical parity rows — correcting any
// clustered error up to 32x32 bits.
func NewPaperArray() *Array {
	h, err := ecc.NewEDC(64, 8)
	if err != nil {
		panic(err)
	}
	return twod.MustArray(twod.Config{
		Rows:           256,
		WordsPerRow:    4,
		Horizontal:     h,
		VerticalGroups: 32,
	})
}

// --- CMP simulation (Fig. 5 / Fig. 6) -----------------------------------

// SystemConfig describes a CMP baseline (Table 1).
type SystemConfig = sim.SystemConfig

// Protection selects which caches carry 2D coding.
type Protection = sim.Protection

// SimResult is one simulation run's outcome.
type SimResult = sim.Result

// SimAccessStats breaks a cache level's simulated traffic into the
// classes of Fig. 6.
type SimAccessStats = sim.AccessStats

// IPCLossReport is the matched-pair performance comparison of Fig. 5.
type IPCLossReport = sim.LossReport

// FatCMP returns the paper's fat baseline: four 4-wide OoO cores,
// dual-ported 64 kB L1 D-caches, a 16 MB shared L2.
func FatCMP() SystemConfig { return sim.FatConfig() }

// LeanCMP returns the paper's lean baseline: eight 2-wide in-order
// 4-thread cores, single-ported L1s, a 4 MB shared L2.
func LeanCMP() SystemConfig { return sim.LeanConfig() }

// Workload returns the named synthetic workload profile (OLTP, DSS,
// Web, Moldyn, Ocean, Sparse).
func Workload(name string) (workload.Profile, error) { return workload.ByName(name) }

// Workloads returns all six paper workloads.
func Workloads() []workload.Profile { return workload.Profiles() }

// RunCMP simulates the system under the protection configuration and
// workload for warmup+measure cycles, reporting IPC and the Fig. 6
// access breakdowns.
func RunCMP(cfg SystemConfig, prot Protection, wl workload.Profile, seed int64, warmup, measure uint64) (SimResult, error) {
	return sim.RunOne(cfg, prot, wl, seed, warmup, measure)
}

// MeasureIPCLoss runs the paper's matched-pair comparison of a
// protection configuration against the unprotected baseline.
func MeasureIPCLoss(cfg SystemConfig, prot Protection, wl workload.Profile, samples int, warmup, measure uint64) (IPCLossReport, error) {
	return sim.PerformanceLoss(cfg, prot, wl, samples, warmup, measure)
}

// --- yield and reliability (Fig. 8) --------------------------------------

// YieldPolicy describes repair resources (spares and/or in-line ECC).
type YieldPolicy = yield.Policy

// YieldGeometry describes the array under the yield model.
type YieldGeometry = yield.Geometry

// CacheYield returns the probability that a die with the given number
// of failing cells is shippable (Fig. 8(a)'s model).
func CacheYield(g YieldGeometry, failingCells int, pol YieldPolicy) float64 {
	return yield.Yield(g, failingCells, pol)
}

// FieldReliability parameterises the Fig. 8(b) experiment.
type FieldReliability = yield.ReliabilityConfig

// --- experiment drivers ---------------------------------------------------

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// ExperimentOptions sizes the simulation-backed experiments.
type ExperimentOptions = experiments.Options

// QuickOptions sizes experiments for smoke runs (seconds).
func QuickOptions() ExperimentOptions { return experiments.Quick() }

// FullOptions sizes experiments for the paper-style run (minutes).
func FullOptions() ExperimentOptions { return experiments.Full() }

// ExperimentIDs lists every reproducible artefact in paper order.
func ExperimentIDs() []string {
	return []string{
		"fig1b", "fig1c", "fig2", "fig3", "fig4", "tab1",
		"fig5a", "fig5b", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig8a", "fig8b",
		"abl-vint", "abl-hcode", "abl-ps", "abl-bch", "abl-wt", "abl-scrub", "abl-bisr", "abl-err", "abl-vcode", "abl-repl", "abl-hintv", "abl-miscorrect",
	}
}

// Experiment reproduces the identified table or figure, returning one
// or more tables.
func Experiment(id string, opt ExperimentOptions) ([]ExperimentTable, error) {
	one := func(t ExperimentTable) []ExperimentTable { return []ExperimentTable{t} }
	switch id {
	case "fig1b":
		return one(experiments.Fig1b()), nil
	case "fig1c":
		return one(experiments.Fig1c()), nil
	case "fig2":
		return experiments.Fig2(), nil
	case "fig3":
		return one(experiments.Fig3(opt)), nil
	case "fig4":
		return one(experiments.Fig4(opt)), nil
	case "tab1":
		return one(experiments.Table1()), nil
	case "fig5a":
		return one(experiments.Fig5(sim.FatConfig(), opt)), nil
	case "fig5b":
		return one(experiments.Fig5(sim.LeanConfig(), opt)), nil
	case "fig6a":
		return experiments.Fig6(sim.FatConfig(), opt), nil
	case "fig6b":
		return experiments.Fig6(sim.LeanConfig(), opt), nil
	case "fig7a":
		return one(experiments.Fig7(false, opt)), nil
	case "fig7b":
		return one(experiments.Fig7(true, opt)), nil
	case "fig8a":
		return one(experiments.Fig8a()), nil
	case "fig8b":
		return one(experiments.Fig8b()), nil
	case "abl-vint":
		return one(experiments.AblationVerticalInterleave(opt)), nil
	case "abl-hcode":
		return one(experiments.AblationHorizontalCode(opt)), nil
	case "abl-ps":
		return one(experiments.AblationPortStealing(opt)), nil
	case "abl-bch":
		return one(experiments.AblationBCHBits()), nil
	case "abl-wt":
		return one(experiments.AblationWriteThrough(opt)), nil
	case "abl-scrub":
		return one(experiments.AblationScrubInterval(opt)), nil
	case "abl-bisr":
		return one(experiments.AblationBISRYield(opt)), nil
	case "abl-err":
		return one(experiments.AblationRecoveryRate(opt)), nil
	case "abl-vcode":
		return one(experiments.AblationVerticalCode(opt)), nil
	case "abl-repl":
		return one(experiments.AblationReplicationCache(opt)), nil
	case "abl-hintv":
		return one(experiments.AblationHorizontalInterleave(opt)), nil
	case "abl-miscorrect":
		return one(experiments.AblationMiscorrection(opt)), nil
	default:
		return nil, fmt.Errorf("twodcache: unknown experiment %q (see ExperimentIDs)", id)
	}
}
