// Package ecc provides the per-word error codes used by the 2D scheme
// and its conventional baselines: interleaved-parity detection codes
// (EDCn), Hsiao SECDED, and wrappers around the BCH multi-bit codes.
// It also provides the check-bit and coding-latency cost models the
// paper uses to size codes (Fig. 1 and Fig. 7).
package ecc

import (
	"fmt"

	"twodcache/internal/bch"
	"twodcache/internal/bitvec"
)

// Result mirrors bch.Result for all per-word codes.
type Result = bch.Result

// Re-exported decode outcomes.
const (
	Clean     = bch.Clean
	Corrected = bch.Corrected
	Detected  = bch.Detected
)

// Code is a systematic per-word error code over bitvec.Codeword views:
// EncodeInto appends check bits to a data word, DecodeInPlace checks
// (and for correcting codes, repairs) a codeword in place. The views
// lie over caller-owned []uint64 scratch, and the parity/Hsiao codes
// perform no heap allocation. The BCH codes, the paper's conventional
// baselines, stay outside that contract: their algebraic coder works on
// codewords of its own, allocated per call. FuzzKernelVsReference pins
// the horizontal codes' syndromes to their parity-check columns and
// every code's decoder to its correction capability.
type Code interface {
	// Name identifies the code, e.g. "EDC8", "SECDED", "OECNED".
	Name() string
	// DataBits is the number of data bits per codeword.
	DataBits() int
	// CheckBits is the number of check bits per codeword.
	CheckBits() int
	// CorrectCapability is the maximum number of bit errors the code is
	// guaranteed to correct (0 for detection-only codes).
	CorrectCapability() int
	// DetectCapability is the maximum number of bit errors the code is
	// guaranteed to detect. For EDCn this applies to contiguous bursts.
	DetectCapability() int
	// EncodeInto writes the codeword for data (a DataBits-bit view)
	// into cw (a CodewordBits-bit view). The views must not overlap.
	EncodeInto(cw, data bitvec.Codeword)
	// DecodeInPlace verifies cw, correcting it in place when possible.
	// It returns the outcome and the number of bits corrected.
	DecodeInPlace(cw bitvec.Codeword) (Result, int)
}

// CodewordBits returns the total codeword size of c.
func CodewordBits(c Code) int { return c.DataBits() + c.CheckBits() }

// StorageOverhead returns check bits as a fraction of data bits.
func StorageOverhead(c Code) float64 {
	return float64(c.CheckBits()) / float64(c.DataBits())
}

// --- BCH-backed correcting codes -------------------------------------

// bchCode adapts bch.Code to the Code interface. bch.New builds
// extended codes, which the algebraic coder lays out parity-first: the
// r-1 BCH parity bits, then the data, then the overall parity bit. The
// adapter moves the data to the front with CopyBits; the overall parity
// bit stays last in both layouts.
type bchCode struct {
	name string
	c    *bch.Code
}

// NewBCHCode wraps a t-error-correcting, (t+1)-detecting BCH code for k
// data bits under the conventional name (DECTED, QECPED, OECNED, ...).
func NewBCHCode(name string, k, t int) (Code, error) {
	c, err := bch.New(k, t)
	if err != nil {
		return nil, fmt.Errorf("ecc: %s: %w", name, err)
	}
	return &bchCode{name: name, c: c}, nil
}

// NewDECTED returns a double-error-correct triple-error-detect code.
func NewDECTED(k int) (Code, error) { return NewBCHCode("DECTED", k, 2) }

// NewQECPED returns a quad-error-correct penta-error-detect code.
func NewQECPED(k int) (Code, error) { return NewBCHCode("QECPED", k, 4) }

// NewOECNED returns an octal-error-correct nona-error-detect code.
func NewOECNED(k int) (Code, error) { return NewBCHCode("OECNED", k, 8) }

func (b *bchCode) Name() string           { return b.name }
func (b *bchCode) DataBits() int          { return b.c.K() }
func (b *bchCode) CheckBits() int         { return b.c.ParityBits() }
func (b *bchCode) CorrectCapability() int { return b.c.T() }
func (b *bchCode) DetectCapability() int  { return b.c.T() + 1 }

// EncodeInto encodes data with the algebraic coder and writes the
// codeword into cw in the uniform data-then-check layout.
func (b *bchCode) EncodeInto(cw, data bitvec.Codeword) {
	b.fromCoder(cw, b.c.Encode(data))
}

// DecodeInPlace decodes a fresh copy of cw in the coder's layout, so
// concurrent callers share nothing, and copies corrections back.
func (b *bchCode) DecodeInPlace(cw bitvec.Codeword) (Result, int) {
	k, p := b.c.K(), b.c.ParityBits()-1
	in := bitvec.New(cw.Len())
	in.CopyBits(0, cw, k, p)
	in.CopyBits(p, cw, 0, k)
	in.CopyBits(p+k, cw, p+k, 1)
	res, n := b.c.Decode(in)
	if res == Corrected {
		b.fromCoder(cw, in)
	}
	return res, n
}

// fromCoder writes in, a codeword in the coder's layout, into cw in the
// uniform layout.
func (b *bchCode) fromCoder(cw, in bitvec.Codeword) {
	k, p := b.c.K(), b.c.ParityBits()-1
	cw.CopyBits(0, in, p, k)
	cw.CopyBits(k, in, 0, p)
	cw.CopyBits(p+k, in, p+k, 1)
}
