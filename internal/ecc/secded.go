package ecc

import (
	"fmt"
	"math/bits"

	"twodcache/internal/bitvec"
)

// SECDED is a Hsiao-style single-error-correct, double-error-detect code
// (odd-weight-column construction). With k=64 it yields the classic
// (72,64) code; with k=256 the (266,256) code the paper uses for L2
// words. It can also correct single-bit manufacture-time hard errors
// in-line, the paper's yield-enhancement configuration (§5.2).
type SECDED struct {
	k, r int
	// cols[j] is the r-bit parity-check column for codeword bit j
	// (data bits 0..k-1 then check bits k..k+r-1).
	cols []uint16
	// colIndex maps a column pattern back to its bit position + 1.
	colIndex map[uint16]int
	// kern is the word-parallel row-mask machinery behind the
	// allocation-free EncodeInto/DecodeInPlace/SyndromeWords path.
	kern colKernel
}

// NewSECDED builds the code for k data bits, picking the smallest r with
// 2^(r-1) >= k + r (enough distinct odd-weight columns).
func NewSECDED(k int) (*SECDED, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ecc: invalid SECDED k=%d", k)
	}
	r := 2
	for ; r <= 16; r++ {
		if 1<<(uint(r)-1) >= k+r {
			break
		}
	}
	if r > 16 {
		return nil, fmt.Errorf("ecc: SECDED k=%d too large (r > 16)", k)
	}
	s := &SECDED{k: k, r: r, cols: make([]uint16, k+r), colIndex: make(map[uint16]int)}
	// Data bits take odd-weight columns of weight >= 3, lowest weight
	// first (Hsiao's minimal-weight rule).
	idx := 0
	for w := 3; w <= r && idx < k; w += 2 {
		for c := uint16(1); int(c) < 1<<uint(r) && idx < k; c++ {
			if bits.OnesCount16(c) == w {
				s.cols[idx] = c
				idx++
			}
		}
	}
	if idx < k {
		return nil, fmt.Errorf("ecc: SECDED internal: not enough odd columns for k=%d r=%d", k, r)
	}
	// Check bits take the weight-1 identity columns.
	for i := 0; i < r; i++ {
		s.cols[k+i] = 1 << uint(i)
	}
	for j, c := range s.cols {
		s.colIndex[c] = j + 1
	}
	s.kern = makeColKernel(k, r, s.cols)
	return s, nil
}

// MustSECDED is NewSECDED panicking on error.
func MustSECDED(k int) *SECDED {
	s, err := NewSECDED(k)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns "SECDED".
func (s *SECDED) Name() string { return "SECDED" }

// DataBits returns the number of data bits per codeword.
func (s *SECDED) DataBits() int { return s.k }

// CheckBits returns the number of check bits.
func (s *SECDED) CheckBits() int { return s.r }

// CorrectCapability is 1.
func (s *SECDED) CorrectCapability() int { return 1 }

// DetectCapability is 2.
func (s *SECDED) DetectCapability() int { return 2 }

// EncodeInto writes data plus check bits into cw, so that every
// parity-check row is even, without allocating.
func (s *SECDED) EncodeInto(cw, data bitvec.Codeword) {
	s.kern.encodeInto(cw, data, "SECDED")
}

// SyndromeWords returns the packed syndrome H*cw of a codeword view,
// allocation-free.
func (s *SECDED) SyndromeWords(cw bitvec.Codeword) uint64 {
	return uint64(s.kern.syndromeWords(cw.Words()))
}

// DecodeInPlace corrects a single-bit error in place without
// allocating; even-weight or unmatched syndromes report Detected.
func (s *SECDED) DecodeInPlace(cw bitvec.Codeword) (Result, int) {
	return s.kern.decodeInPlace(cw, s.colIndex, "SECDED")
}

var _ Code = (*SECDED)(nil)
