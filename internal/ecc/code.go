// Package ecc provides the per-word error codes used by the 2D scheme
// and its conventional baselines: interleaved-parity detection codes
// (EDCn), Hsiao SECDED, and wrappers around the BCH multi-bit codes.
// It also provides the check-bit and coding-latency cost models the
// paper uses to size codes (Fig. 1 and Fig. 7).
package ecc

import (
	"fmt"
	"sync"

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
// perform no heap allocation (the BCH codes adapt through an internal
// scratch pool). FuzzKernelVsReference pins the horizontal codes'
// syndromes to their parity-check columns and every code's decoder to
// its correction capability.
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

// bchCode adapts bch.Code to the Code interface.
type bchCode struct {
	name string
	c    *bch.Code
	// scratch pools the Vector buffers the algebraic coder works on, so
	// the word-view methods adapt through pooled scratch instead of
	// allocating fresh vectors per call.
	scratch sync.Pool
}

// bchVecs is one pooled set of conversion buffers.
type bchVecs struct {
	data *bitvec.Vector // k bits
	cw   *bitvec.Vector // k + r bits
}

// NewBCHCode wraps a t-error-correcting, (t+1)-detecting BCH code for k
// data bits under the conventional name (DECTED, QECPED, OECNED, ...).
func NewBCHCode(name string, k, t int) (Code, error) {
	c, err := bch.New(k, t)
	if err != nil {
		return nil, fmt.Errorf("ecc: %s: %w", name, err)
	}
	b := &bchCode{name: name, c: c}
	b.scratch.New = func() any {
		return &bchVecs{
			data: bitvec.New(c.K()),
			cw:   bitvec.New(c.K() + c.ParityBits()),
		}
	}
	return b, nil
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

// encode returns data's codeword in the uniform data-then-check layout.
// bch.New builds extended codes, stored as the r-1 BCH parity bits,
// then the data, then the overall parity bit.
func (b *bchCode) encode(data *bitvec.Vector) *bitvec.Vector {
	cw := b.c.Encode(data)
	r := b.c.ParityBits()
	out := bitvec.New(cw.Len())
	out.SetSlice(0, b.c.Data(cw))
	out.SetSlice(data.Len(), cw.Slice(0, r-1))
	out.Set(cw.Len()-1, cw.Bit(cw.Len()-1))
	return out
}

func (b *bchCode) toInternal(cw *bitvec.Vector) *bitvec.Vector {
	k := b.c.K()
	r := b.c.ParityBits()
	in := bitvec.New(cw.Len())
	in.SetSlice(r-1, cw.Slice(0, k))       // data after BCH parity
	in.SetSlice(0, cw.Slice(k, k+r-1))     // BCH parity first
	in.Set(cw.Len()-1, cw.Bit(cw.Len()-1)) // extended parity last
	return in
}

func (b *bchCode) fromInternal(in *bitvec.Vector) *bitvec.Vector {
	k := b.c.K()
	r := b.c.ParityBits()
	out := bitvec.New(in.Len())
	out.SetSlice(0, in.Slice(r-1, r-1+k))
	out.SetSlice(k, in.Slice(0, r-1))
	out.Set(in.Len()-1, in.Bit(in.Len()-1))
	return out
}

// decode checks cw, correcting it in place when possible.
func (b *bchCode) decode(cw *bitvec.Vector) (Result, int) {
	in := b.toInternal(cw)
	res, n := b.c.Decode(in)
	if res == Corrected {
		cw.CopyFrom(b.fromInternal(in))
	}
	return res, n
}

// EncodeInto adapts through the pooled Vector scratch: the BCH encoder
// itself stays algebraic.
func (b *bchCode) EncodeInto(cw, data bitvec.Codeword) {
	s := b.scratch.Get().(*bchVecs)
	s.data.AsCodeword().CopyFrom(data)
	cw.CopyFrom(b.encode(s.data).AsCodeword())
	b.scratch.Put(s)
}

// DecodeInPlace adapts through the scratch pool; corrections are copied
// back into the caller's view.
func (b *bchCode) DecodeInPlace(cw bitvec.Codeword) (Result, int) {
	s := b.scratch.Get().(*bchVecs)
	s.cw.AsCodeword().CopyFrom(cw)
	res, n := b.decode(s.cw)
	if res == Corrected {
		cw.CopyFrom(s.cw.AsCodeword())
	}
	b.scratch.Put(s)
	return res, n
}
