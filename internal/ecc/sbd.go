package ecc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"twodcache/internal/bitvec"
)

// SECDEDSBD is a single-error-correct, double-error-detect,
// single-byte-error-detect code — the extension the paper names (§3,
// refs [12,28]) for giving SECDED the multi-bit detection reach of
// interleaved EDC at very low cost. On top of the Hsiao odd-weight
// construction, the parity-check columns of each data byte are chosen
// so that *any* error pattern confined to one byte produces a syndrome
// that is nonzero and does not alias a single-bit column — detected,
// never miscorrected.
type SECDEDSBD struct {
	k, r, b  int
	name     string
	cols     []uint16
	colIndex map[uint16]int
	// kern is the word-parallel row-mask machinery behind the
	// allocation-free EncodeInto/DecodeInPlace/SyndromeWords path.
	kern colKernel
}

// sbdCache memoises the randomized column search per (k, b).
var sbdCache sync.Map // [2]int -> *SECDEDSBD

// NewSECDEDSbED constructs the code for k data bits with byte width b
// (4 for the classic S4ED that fits in plain-SECDED check counts, 8 for
// full-byte detection). The column assignment is found by seeded
// randomized search and verified exhaustively; results are cached.
func NewSECDEDSbED(k, b int) (*SECDEDSBD, error) {
	if b != 4 && b != 8 {
		return nil, fmt.Errorf("ecc: SbED byte width must be 4 or 8, got %d", b)
	}
	if k <= 0 || k%b != 0 {
		return nil, fmt.Errorf("ecc: SECDED-S%dED needs k divisible by %d, got %d", b, b, k)
	}
	if v, ok := sbdCache.Load([2]int{k, b}); ok {
		return v.(*SECDEDSBD), nil
	}
	// A byte's b columns are linearly independent, so they span a
	// b-dimensional subspace; with r = b that is the whole space and
	// every check column would alias some byte pattern, so r > b is
	// required. Start from max(SECDED's r, b+1) and grow.
	base := MustSECDED(k).CheckBits()
	if base < b+1 {
		base = b + 1
	}
	for r := base; r <= base+3 && r <= 16; r++ {
		if s := searchSBD(k, r, b); s != nil {
			sbdCache.Store([2]int{k, b}, s)
			return s, nil
		}
	}
	return nil, fmt.Errorf("ecc: SECDED-S%dED search failed for k=%d", b, k)
}

// NewSECDEDSBD constructs the full-byte (b=8) variant.
func NewSECDEDSBD(k int) (*SECDEDSBD, error) { return NewSECDEDSbED(k, 8) }

// MustSECDEDSBD panics on error (b=8).
func MustSECDEDSBD(k int) *SECDEDSBD {
	s, err := NewSECDEDSBD(k)
	if err != nil {
		panic(err)
	}
	return s
}

// MustSECDEDSbED panics on error.
func MustSECDEDSbED(k, b int) *SECDEDSBD {
	s, err := NewSECDEDSbED(k, b)
	if err != nil {
		panic(err)
	}
	return s
}

// searchSBD attempts to find a valid column assignment with r check
// bits, trying several seeded shuffles.
func searchSBD(k, r, b int) *SECDEDSBD {
	// Candidate columns: odd weight >= 3 (weight-1 belongs to the check
	// bits' identity part).
	var candidates []uint16
	for c := uint16(1); int(c) < 1<<uint(r); c++ {
		if w := bits.OnesCount16(c); w%2 == 1 && w >= 3 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) < k {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(k)*131 + int64(r)*17 + int64(b)))
	for attempt := 0; attempt < 400; attempt++ {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		if s := trySBD(k, r, b, candidates); s != nil {
			return s
		}
	}
	return nil
}

// trySBD greedily assigns columns byte by byte, maintaining each byte's
// subset-XOR closure, then verifies the global no-alias condition.
func trySBD(k, r, b int, candidates []uint16) *SECDEDSBD {
	s := &SECDEDSBD{k: k, r: r, b: b, cols: make([]uint16, k+r), colIndex: map[uint16]int{}}
	used := map[uint16]bool{}
	// forbidden holds odd-weight subset XORs (|S| >= 2) of completed
	// bytes: a later column equal to one would let that byte's error
	// pattern masquerade as a single-bit error in the new column.
	forbidden := map[uint16]bool{}
	// Check-bit identity columns.
	for i := 0; i < r; i++ {
		s.cols[k+i] = 1 << uint(i)
		used[1<<uint(i)] = true
	}
	for byteIdx := 0; byteIdx < k/b; byteIdx++ {
		// closure holds XORs of all non-empty subsets of this byte's
		// chosen columns.
		closure := map[uint16]bool{}
		for bit := 0; bit < b; bit++ {
			// Scan the (shuffled) candidate list for a column that keeps
			// the byte's subset-XOR closure free of 0, duplicates, and
			// odd-weight aliases to already-used columns.
			placed := false
			for _, c := range candidates {
				if used[c] || closure[c] || forbidden[c] {
					continue // duplicate, subset collision, or alias
				}
				ok := true
				for x := range closure {
					xc := x ^ c
					if xc == 0 || closure[xc] ||
						(used[xc] && bits.OnesCount16(xc)%2 == 1) {
						// xc already a subset XOR => two subsets alias;
						// odd-weight alias to a used column would
						// miscorrect. (Verified globally below too.)
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				// Accept c.
				newClosure := map[uint16]bool{c: true}
				for x := range closure {
					newClosure[x] = true
					newClosure[x^c] = true
				}
				closure = newClosure
				s.cols[byteIdx*b+bit] = c
				used[c] = true
				placed = true
				break
			}
			if !placed {
				return nil
			}
		}
		// Freeze this byte's odd multi-column subset XORs.
		for x := range closure {
			if bits.OnesCount16(x)%2 == 1 {
				forbidden[x] = true
			}
		}
	}
	for j, c := range s.cols {
		s.colIndex[c] = j + 1
	}
	if !s.verify() {
		return nil
	}
	s.kern = makeColKernel(k, r, s.cols)
	s.name = fmt.Sprintf("SECDED-S%dED", b)
	return s
}

// verify exhaustively checks the single-byte-detection property: every
// error confined to one data byte yields a syndrome that is nonzero and
// not equal to any single column (so the decoder reports Detected
// rather than miscorrecting).
func (s *SECDEDSBD) verify() bool {
	for byteIdx := 0; byteIdx < s.k/s.b; byteIdx++ {
		group := s.cols[byteIdx*s.b : byteIdx*s.b+s.b]
		for mask := 2; mask < 1<<uint(s.b); mask++ { // multi-bit patterns only
			if bits.OnesCount16(uint16(mask)) < 2 {
				continue
			}
			var syn uint16
			for bit := 0; bit < s.b; bit++ {
				if mask&(1<<uint(bit)) != 0 {
					syn ^= group[bit]
				}
			}
			if syn == 0 {
				return false
			}
			if s.colIndex[syn] != 0 {
				return false
			}
		}
	}
	return true
}

// Name returns "SECDED-S4ED" or "SECDED-S8ED".
func (s *SECDEDSBD) Name() string { return s.name }

// DataBits returns the data width.
func (s *SECDEDSBD) DataBits() int { return s.k }

// CheckBits returns the check-bit count.
func (s *SECDEDSBD) CheckBits() int { return s.r }

// CorrectCapability is 1 (single-bit correction).
func (s *SECDEDSBD) CorrectCapability() int { return 1 }

// DetectCapability is b: any error within one b-bit byte is detected
// (plus all double-bit errors anywhere).
func (s *SECDEDSBD) DetectCapability() int { return s.b }

// EncodeInto writes data plus check bits into cw without allocating.
func (s *SECDEDSBD) EncodeInto(cw, data bitvec.Codeword) {
	s.kern.encodeInto(cw, data, s.Name())
}

// SyndromeWords returns the packed syndrome of a codeword view,
// allocation-free.
func (s *SECDEDSBD) SyndromeWords(cw bitvec.Codeword) uint64 {
	return uint64(s.kern.syndromeWords(cw.Words()))
}

// DecodeInPlace corrects single-bit errors and detects double-bit and
// single-byte multi-bit errors, without allocating.
func (s *SECDEDSBD) DecodeInPlace(cw bitvec.Codeword) (Result, int) {
	return s.kern.decodeInPlace(cw, s.colIndex, s.Name())
}

// ParityColumn implements HorizontalCode.
func (s *SECDEDSBD) ParityColumn(j int) uint64 { return uint64(s.cols[j]) }

var _ HorizontalCode = (*SECDEDSBD)(nil)
