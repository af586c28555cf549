package ecc

import (
	"math/rand"
	"testing"
)

func TestBCHCodeWrappers(t *testing.T) {
	cases := []struct {
		make func(int) (Code, error)
		name string
		t    int
	}{
		{NewDECTED, "DECTED", 2},
		{NewQECPED, "QECPED", 4},
		{NewOECNED, "OECNED", 8},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		c, err := tc.make(64)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Name() != tc.name || c.CorrectCapability() != tc.t || c.DetectCapability() != tc.t+1 {
			t.Fatalf("%s: bad metadata %s/%d/%d", tc.name, c.Name(), c.CorrectCapability(), c.DetectCapability())
		}
		for trial := 0; trial < 15; trial++ {
			d := randVec(rng, 64)
			cw := encode(c, d)
			if cw.Len() != CodewordBits(c) {
				t.Fatalf("%s: codeword length %d", tc.name, cw.Len())
			}
			if !dataBits(cw, d.Len()).Equal(d) {
				t.Fatalf("%s: not systematic", tc.name)
			}
			// Inject exactly t errors in random positions.
			for _, p := range rng.Perm(cw.Len())[:tc.t] {
				cw.Flip(p)
			}
			res, n := c.DecodeInPlace(cw)
			if res != Corrected || n != tc.t {
				t.Fatalf("%s: decode %v/%d, want corrected/%d", tc.name, res, n, tc.t)
			}
			if !dataBits(cw, d.Len()).Equal(d) {
				t.Fatalf("%s: data not restored", tc.name)
			}
		}
	}
}

func TestBCHWrapperDetectsTPlusOne(t *testing.T) {
	c, err := NewDECTED(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		cw := encode(c, randVec(rng, 64))
		before := cw.Clone()
		for _, p := range rng.Perm(cw.Len())[:3] {
			cw.Flip(p)
		}
		res, _ := c.DecodeInPlace(cw)
		if res != Detected {
			t.Fatalf("3 errors on DECTED: %v", res)
		}
		// Word should differ from clean in exactly the 3 flips (untouched).
		diff := 0
		for i := 0; i < cw.Len(); i++ {
			if cw.Bit(i) != before.Bit(i) {
				diff++
			}
		}
		if diff != 3 {
			t.Fatalf("Detected decode mutated codeword: %d diffs", diff)
		}
	}
}

func TestStorageOverheadHelper(t *testing.T) {
	e := MustEDC(64, 8)
	if StorageOverhead(e) != 0.125 {
		t.Fatalf("overhead = %v", StorageOverhead(e))
	}
}
