package ecc

import (
	"math/rand"
	"testing"
)

func TestSBDConstruction(t *testing.T) {
	for _, k := range []int{16, 32, 64} {
		s, err := NewSECDEDSBD(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if s.DataBits() != k {
			t.Fatalf("k=%d: data bits %d", k, s.DataBits())
		}
		// S8ED needs at least 9 check bits (a byte's independent columns
		// would otherwise span the whole space).
		if s.CheckBits() < 9 || s.CheckBits() > 12 {
			t.Fatalf("k=%d: SBD uses %d check bits", k, s.CheckBits())
		}
	}
	if _, err := NewSECDEDSBD(60); err == nil {
		t.Fatal("non-byte-multiple k accepted")
	}
}

func TestSBDSingleBitCorrection(t *testing.T) {
	s := MustSECDEDSBD(64)
	rng := rand.New(rand.NewSource(1))
	d := randVec(rng, 64)
	clean := encode(s, d)
	for pos := 0; pos < clean.Len(); pos++ {
		cw := clean.Clone()
		cw.Flip(pos)
		res, n := s.DecodeInPlace(cw)
		if res != Corrected || n != 1 {
			t.Fatalf("pos %d: %v/%d", pos, res, n)
		}
		if !cw.Equal(clean) {
			t.Fatalf("pos %d: not restored", pos)
		}
	}
}

func TestSBDDoubleBitDetection(t *testing.T) {
	s := MustSECDEDSBD(32)
	rng := rand.New(rand.NewSource(2))
	clean := encode(s, randVec(rng, 32))
	n := clean.Len()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			cw := clean.Clone()
			cw.Flip(a)
			cw.Flip(b)
			if res, _ := s.DecodeInPlace(cw); res != Detected {
				t.Fatalf("double (%d,%d): %v", a, b, res)
			}
		}
	}
}

func TestSBDByteErrorDetectionExhaustive(t *testing.T) {
	// THE defining property: every multi-bit pattern confined to one
	// data byte is detected — never miscorrected. Exhaustive over all
	// bytes x all 247 multi-bit patterns.
	s := MustSECDEDSBD(64)
	rng := rand.New(rand.NewSource(3))
	clean := encode(s, randVec(rng, 64))
	for byteIdx := 0; byteIdx < 8; byteIdx++ {
		for mask := 0; mask < 256; mask++ {
			pop := 0
			for b := 0; b < 8; b++ {
				if mask&(1<<b) != 0 {
					pop++
				}
			}
			if pop < 2 {
				continue
			}
			cw := clean.Clone()
			for b := 0; b < 8; b++ {
				if mask&(1<<b) != 0 {
					cw.Flip(byteIdx*8 + b)
				}
			}
			res, _ := s.DecodeInPlace(cw)
			if res != Detected {
				t.Fatalf("byte %d mask %#x: %v (miscorrection!)", byteIdx, mask, res)
			}
		}
	}
}

func TestPlainSECDEDMissesByteErrors(t *testing.T) {
	// Contrast: the plain Hsiao code miscorrects or misses some
	// byte-confined patterns — the gap SBD closes.
	s := MustSECDED(64)
	rng := rand.New(rand.NewSource(4))
	clean := encode(s, randVec(rng, 64))
	bad := 0
	for byteIdx := 0; byteIdx < 8; byteIdx++ {
		for mask := 0; mask < 256; mask++ {
			pop := 0
			for b := 0; b < 8; b++ {
				if mask&(1<<b) != 0 {
					pop++
				}
			}
			if pop < 3 || pop%2 == 0 {
				continue // odd >= 3 patterns are the dangerous ones
			}
			cw := clean.Clone()
			for b := 0; b < 8; b++ {
				if mask&(1<<b) != 0 {
					cw.Flip(byteIdx*8 + b)
				}
			}
			if res, _ := s.DecodeInPlace(cw); res == Corrected {
				bad++ // miscorrection: plausible single-bit fix applied
			}
		}
	}
	if bad == 0 {
		t.Skip("this Hsiao instance happens to detect all byte errors; construction not guaranteed to")
	}
	t.Logf("plain SECDED miscorrected %d byte-confined patterns", bad)
}

func TestSBDCleanRoundTrip(t *testing.T) {
	s := MustSECDEDSBD(64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		d := randVec(rng, 64)
		cw := encode(s, d)
		if res, _ := s.DecodeInPlace(cw); res != Clean {
			t.Fatal("clean decode failed")
		}
		if !dataBits(cw, d.Len()).Equal(d) {
			t.Fatal("data mismatch")
		}
	}
}

func TestSBDAsHorizontalCode(t *testing.T) {
	var h HorizontalCode = MustSECDEDSBD(64)
	cw := encode(h, randVec(rand.New(rand.NewSource(6)), 64))
	if h.SyndromeWords(cw) != 0 {
		t.Fatal("clean syndrome nonzero")
	}
	cw.Flip(10)
	if h.SyndromeWords(cw) == 0 {
		t.Fatal("error invisible")
	}
	if h.ParityColumn(10) == 0 {
		t.Fatal("zero parity column")
	}
}

func TestSBDCached(t *testing.T) {
	a := MustSECDEDSBD(64)
	b := MustSECDEDSBD(64)
	if a != b {
		t.Fatal("construction not cached")
	}
}

func TestS4EDMatchesSECDEDCheckBits(t *testing.T) {
	// The classic (72,64) SEC-DED-S4ED: nibble-error detection at the
	// SAME check-bit count as plain SECDED — the paper's "very low
	// overhead" configuration.
	s := MustSECDEDSbED(64, 4)
	if s.CheckBits() != MustSECDED(64).CheckBits() {
		t.Fatalf("S4ED uses %d check bits, SECDED uses %d",
			s.CheckBits(), MustSECDED(64).CheckBits())
	}
	if s.Name() != "SECDED-S4ED" || s.b != 4 {
		t.Fatalf("metadata: %s/%d", s.Name(), s.b)
	}
}

func TestS4EDNibbleDetectionExhaustive(t *testing.T) {
	s := MustSECDEDSbED(64, 4)
	rng := rand.New(rand.NewSource(9))
	clean := encode(s, randVec(rng, 64))
	for nib := 0; nib < 16; nib++ {
		for mask := 0; mask < 16; mask++ {
			pop := 0
			for b := 0; b < 4; b++ {
				if mask&(1<<b) != 0 {
					pop++
				}
			}
			if pop < 2 {
				continue
			}
			cw := clean.Clone()
			for b := 0; b < 4; b++ {
				if mask&(1<<b) != 0 {
					cw.Flip(nib*4 + b)
				}
			}
			if res, _ := s.DecodeInPlace(cw); res != Detected {
				t.Fatalf("nibble %d mask %#x: %v", nib, mask, res)
			}
		}
	}
}

func TestSbEDRejectsBadParams(t *testing.T) {
	if _, err := NewSECDEDSbED(64, 5); err == nil {
		t.Fatal("b=5 accepted")
	}
	if _, err := NewSECDEDSbED(30, 4); err == nil {
		t.Fatal("k not divisible by b accepted")
	}
}
