package bch

import (
	"math/rand"
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/gf2"
)

// TestDecodeNeverPanicsAnyWeight drives the decoder with error weights
// far beyond the design distance: a bounded-distance decoder may
// miscorrect there, but it must never panic, loop, or corrupt the
// codeword length, and weights within the guarantee must behave per
// contract.
func TestDecodeNeverPanicsAnyWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct{ k, t int }{{64, 1}, {64, 2}, {64, 4}, {64, 8}, {256, 2}} {
		c, err := New(tc.k, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			data := randVec(rng, tc.k)
			cw := c.Encode(data)
			weight := rng.Intn(2*tc.t + 5)
			flipRandom(rng, cw, weight)
			res, n := c.Decode(cw)
			if cw.Len() != c.N() {
				t.Fatalf("codeword length mutated to %d", cw.Len())
			}
			switch {
			case weight == 0:
				if res != Clean {
					t.Fatalf("k=%d t=%d w=0: %v", tc.k, tc.t, res)
				}
			case weight <= tc.t:
				if res != Corrected || !c.Data(cw).Equal(data) {
					t.Fatalf("k=%d t=%d w=%d: %v/%d", tc.k, tc.t, weight, res, n)
				}
			case weight == tc.t+1:
				if res != Detected {
					t.Fatalf("k=%d t=%d w=t+1: %v (guarantee violated)", tc.k, tc.t, res)
				}
			default:
				// Beyond the design distance: Detected or a (legal)
				// miscorrection; either way n <= t+1 bits were flipped.
				if res == Corrected && n > tc.t+1 {
					t.Fatalf("claimed to correct %d > t+1 bits", n)
				}
			}
		}
	}
}

// TestDecodeIsIdempotent: decoding a decoded word reports Clean.
func TestDecodeIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		cw := c.Encode(randVec(rng, 64))
		flipRandom(rng, cw, 1+rng.Intn(4))
		if res, _ := c.Decode(cw); res != Corrected {
			t.Fatal("setup decode failed")
		}
		if res, _ := c.Decode(cw); res != Clean {
			t.Fatalf("second decode: %v", res)
		}
	}
}

// TestGeneratorDividesCodewords: every encoded word, as a polynomial,
// is divisible by the generator — the defining algebraic property.
func TestGeneratorDividesCodewords(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, err := NewPlain(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		cw := c.Encode(randVec(rng, 32))
		// Build the codeword polynomial.
		poly := polyFromVec(cw)
		if !poly.Mod(c.Generator()).IsZero() {
			t.Fatal("codeword not divisible by generator")
		}
	}
}

// polyFromVec converts a codeword bit vector to a GF(2) polynomial.
func polyFromVec(v bitvec.Codeword) gf2.Poly {
	p := gf2.Poly{}
	for _, i := range v.Ones() {
		p = p.Add(gf2.PolyX(i))
	}
	return p
}
