package ecc

import (
	"math/rand"
	"testing"
)

func TestSECDEDClassicSizes(t *testing.T) {
	s64 := MustSECDED(64)
	if s64.CheckBits() != 8 {
		t.Fatalf("(72,64): r = %d", s64.CheckBits())
	}
	s256 := MustSECDED(256)
	if s256.CheckBits() != 10 {
		t.Fatalf("(266,256): r = %d", s256.CheckBits())
	}
	if _, err := NewSECDED(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSECDEDCleanAndData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{8, 64, 256} {
		s := MustSECDED(k)
		for i := 0; i < 20; i++ {
			d := randVec(rng, k)
			cw := encode(s, d)
			if res, n := s.DecodeInPlace(cw); res != Clean || n != 0 {
				t.Fatalf("k=%d: clean decode %v/%d", k, res, n)
			}
			if !dataBits(cw, d.Len()).Equal(d) {
				t.Fatalf("k=%d: data mismatch", k)
			}
		}
	}
}

func TestSECDEDCorrectsEverySingleBit(t *testing.T) {
	// Exhaustive: every single-bit flip (data or check) must be corrected.
	for _, k := range []int{16, 64} {
		s := MustSECDED(k)
		rng := rand.New(rand.NewSource(int64(k)))
		d := randVec(rng, k)
		clean := encode(s, d)
		for pos := 0; pos < clean.Len(); pos++ {
			cw := clean.Clone()
			cw.Flip(pos)
			res, n := s.DecodeInPlace(cw)
			if res != Corrected || n != 1 {
				t.Fatalf("k=%d pos=%d: %v/%d", k, pos, res, n)
			}
			if !cw.Equal(clean) {
				t.Fatalf("k=%d pos=%d: codeword not restored", k, pos)
			}
		}
	}
}

func TestSECDEDDetectsEveryDoubleBit(t *testing.T) {
	s := MustSECDED(32)
	rng := rand.New(rand.NewSource(3))
	clean := encode(s, randVec(rng, 32))
	n := clean.Len()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			cw := clean.Clone()
			cw.Flip(a)
			cw.Flip(b)
			res, _ := s.DecodeInPlace(cw)
			if res != Detected {
				t.Fatalf("double error (%d,%d) gave %v", a, b, res)
			}
			// Must not have modified the word.
			cwCheck := clean.Clone()
			cwCheck.Flip(a)
			cwCheck.Flip(b)
			if !cw.Equal(cwCheck) {
				t.Fatalf("double error (%d,%d) mutated codeword", a, b)
			}
		}
	}
}

func TestSECDEDColumnsDistinctOdd(t *testing.T) {
	s := MustSECDED(64)
	seen := map[uint16]bool{}
	for j, c := range s.cols {
		if c == 0 {
			t.Fatalf("column %d is zero", j)
		}
		if seen[c] {
			t.Fatalf("duplicate column %#x at %d", c, j)
		}
		seen[c] = true
		w := 0
		for x := c; x != 0; x &= x - 1 {
			w++
		}
		if w%2 == 0 {
			t.Fatalf("column %d has even weight %d", j, w)
		}
	}
}

func TestSECDEDHardErrorPlusSoftError(t *testing.T) {
	// The paper's Fig. 8(b) scenario: a stuck-at hard error plus a later
	// soft error in the same word defeats SECDED (detected, not
	// corrected) — the motivation for keeping 2D protection on top.
	s := MustSECDED(64)
	rng := rand.New(rand.NewSource(4))
	d := randVec(rng, 64)
	cw := encode(s, d)
	cw.Flip(10) // manufacture-time hard error
	cw.Flip(40) // in-field soft error
	res, _ := s.DecodeInPlace(cw)
	if res != Detected {
		t.Fatalf("hard+soft pair should be uncorrectable: %v", res)
	}
}
