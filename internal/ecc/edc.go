package ecc

import (
	"fmt"
	"math/bits"

	"twodcache/internal/bitvec"
)

// EDC is the paper's interleaved-parity error detection code EDCn:
// n check bits per word where check bit i stores the parity of every
// n-th data bit starting at i (parity_bit[i] = xor(data[i], data[i+n],
// data[i+2n], ...)). EDCn detects all contiguous errors of up to n bits
// (each flipped bit falls in a distinct parity group). It corrects
// nothing by itself — in the 2D scheme correction is the vertical
// code's job.
//
// The kernel path computes all n group parities word-parallel: when n
// is a power of two (so n divides 64) a log-fold of the XOR-accumulated
// data words yields every group parity at once; otherwise precomputed
// per-group bit masks reduce each group to one OnesCount64 per data
// word.
type EDC struct {
	k int // data bits
	n int // interleave factor = check bits
	// foldable is true when n is a power of two: group(i) = i%n depends
	// only on i%64, so the XOR of all data words folds to the checks.
	foldable bool
	// groupMasks[wi*n+g] masks the bits of data word wi belonging to
	// parity group g (only built when !foldable).
	groupMasks []uint64
}

// NewEDC returns an EDCn code for k data bits. n must be positive, not
// exceed k, and fit the packed-syndrome kernels (n <= 64).
func NewEDC(k, n int) (*EDC, error) {
	if k <= 0 || n <= 0 || n > k {
		return nil, fmt.Errorf("ecc: invalid EDC parameters k=%d n=%d", k, n)
	}
	if n > 64 {
		return nil, fmt.Errorf("ecc: EDC n=%d exceeds the 64-bit packed syndrome", n)
	}
	e := &EDC{k: k, n: n, foldable: n&(n-1) == 0}
	if !e.foldable {
		dw := bitvec.WordsFor(k)
		e.groupMasks = make([]uint64, dw*n)
		for i := 0; i < k; i++ {
			e.groupMasks[(i/64)*n+i%n] |= 1 << uint(i%64)
		}
	}
	return e, nil
}

// MustEDC is NewEDC panicking on error.
func MustEDC(k, n int) *EDC {
	e, err := NewEDC(k, n)
	if err != nil {
		panic(err)
	}
	return e
}

// Name returns "EDC<n>".
func (e *EDC) Name() string { return fmt.Sprintf("EDC%d", e.n) }

// DataBits returns the number of data bits per codeword.
func (e *EDC) DataBits() int { return e.k }

// CheckBits returns n, the number of interleaved parity bits.
func (e *EDC) CheckBits() int { return e.n }

// CorrectCapability is 0: EDC is detection-only.
func (e *EDC) CorrectCapability() int { return 0 }

// DetectCapability is n for contiguous bursts.
func (e *EDC) DetectCapability() int { return e.n }

// dataChecks computes the n interleaved parity bits of the low k bits
// of w, packed into a uint64 (bit g = group g's parity). Bits beyond k
// in the straddling word are masked out, so w may be a full codeword's
// backing (check bits ignored).
func (e *EDC) dataChecks(w []uint64) uint64 {
	full := e.k >> 6
	rem := uint(e.k & 63)
	if e.foldable {
		var acc uint64
		for _, x := range w[:full] {
			acc ^= x
		}
		if rem != 0 {
			acc ^= w[full] & (1<<rem - 1)
		}
		for s := uint(32); s >= uint(e.n); s >>= 1 {
			acc ^= acc >> s
		}
		if e.n < 64 {
			acc &= 1<<uint(e.n) - 1
		}
		return acc
	}
	dw := bitvec.WordsFor(e.k)
	var syn uint64
	for g := 0; g < e.n; g++ {
		var acc uint64
		for wi := 0; wi < dw; wi++ {
			x := w[wi]
			if wi == full && rem != 0 {
				x &= 1<<rem - 1
			}
			acc ^= x & e.groupMasks[wi*e.n+g]
		}
		syn |= uint64(bits.OnesCount64(acc)&1) << uint(g)
	}
	return syn
}

// EncodeInto writes the codeword for data into cw without allocating.
func (e *EDC) EncodeInto(cw, data bitvec.Codeword) {
	if data.Len() != e.k || cw.Len() != e.k+e.n {
		panic(fmt.Sprintf("ecc: EDC EncodeInto lengths cw=%d data=%d want %d/%d",
			cw.Len(), data.Len(), e.k+e.n, e.k))
	}
	cw.Zero()
	copy(cw.Words(), data.Words())
	cw.StoreBits(e.k, e.n, e.dataChecks(cw.Words()))
}

// DecodeInPlace verifies the interleaved parity on a word view without
// allocating. EDC never corrects; any parity mismatch yields Detected.
func (e *EDC) DecodeInPlace(cw bitvec.Codeword) (Result, int) {
	if cw.Len() != e.k+e.n {
		panic(fmt.Sprintf("ecc: EDC codeword length %d != %d", cw.Len(), e.k+e.n))
	}
	if e.SyndromeWords(cw) == 0 {
		return Clean, 0
	}
	return Detected, 0
}

// SyndromeWords returns the packed n-bit parity mismatch of a codeword
// view (bit g set when parity group g is inconsistent), allocation-free.
// The 2D recovery process uses it to identify faulty column groups.
func (e *EDC) SyndromeWords(cw bitvec.Codeword) uint64 {
	return e.dataChecks(cw.Words()) ^ cw.Uint64At(e.k)
}

var _ Code = (*EDC)(nil)
