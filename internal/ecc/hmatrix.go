package ecc

import "twodcache/internal/bitvec"

// HorizontalCode is the subset of codes usable as the horizontal
// dimension of 2D coding. Beyond encode/decode it exposes its
// parity-check matrix column-wise, which the 2D column-failure recovery
// uses to localise erroneous bits: given a set of suspect columns (from
// the vertical code) and a word's syndrome, recovery solves for the
// unique flip set over GF(2).
type HorizontalCode interface {
	Code
	// SyndromeWords returns the syndrome of cw packed into a uint64
	// (bit i = syndrome bit i). Zero means the word checks clean. It is
	// the allocation-free per-access check the twod/pcache hot paths run.
	SyndromeWords(cw bitvec.Codeword) uint64
	// ParityColumn returns the parity-check column of codeword bit j,
	// packed the same way: flipping bit j XORs this mask into the
	// syndrome.
	ParityColumn(j int) uint64
}

// ParityColumn implements HorizontalCode for EDC: data bit b belongs to
// group b mod n; stored check bit i belongs to group i.
func (e *EDC) ParityColumn(j int) uint64 {
	if j < e.k {
		return 1 << uint(j%e.n)
	}
	return 1 << uint(j-e.k)
}

// ParityColumn implements HorizontalCode for SECDED.
func (s *SECDED) ParityColumn(j int) uint64 { return uint64(s.cols[j]) }

var (
	_ HorizontalCode = (*EDC)(nil)
	_ HorizontalCode = (*SECDED)(nil)
)
