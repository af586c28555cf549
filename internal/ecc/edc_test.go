package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twodcache/internal/bitvec"
)

func TestEDCParams(t *testing.T) {
	e := MustEDC(64, 8)
	if e.Name() != "EDC8" || e.DataBits() != 64 || e.CheckBits() != 8 {
		t.Fatalf("params: %s %d %d", e.Name(), e.DataBits(), e.CheckBits())
	}
	if e.CorrectCapability() != 0 || e.DetectCapability() != 8 {
		t.Fatal("capabilities wrong")
	}
	if _, err := NewEDC(64, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewEDC(8, 16); err == nil {
		t.Fatal("n>k accepted")
	}
}

func TestEDCCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 16, 32} {
		e := MustEDC(64, n)
		for i := 0; i < 20; i++ {
			d := randVec(rng, 64)
			cw := encode(e, d)
			if res, _ := e.DecodeInPlace(cw); res != Clean {
				t.Fatalf("EDC%d clean decode failed", n)
			}
			if !dataBits(cw, d.Len()).Equal(d) {
				t.Fatalf("EDC%d data mismatch", n)
			}
		}
	}
}

func TestEDCDetectsContiguousBursts(t *testing.T) {
	// EDCn must detect every contiguous burst of 1..n flipped bits.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 8, 16} {
		e := MustEDC(64, n)
		for trial := 0; trial < 30; trial++ {
			cw := encode(e, randVec(rng, 64))
			blen := 1 + rng.Intn(n)
			start := rng.Intn(cw.Len() - blen)
			for i := 0; i < blen; i++ {
				cw.Flip(start + i)
			}
			if res, _ := e.DecodeInPlace(cw); res != Detected {
				t.Fatalf("EDC%d missed a %d-bit burst at %d", n, blen, start)
			}
		}
	}
}

func TestEDCMissesAlignedPairs(t *testing.T) {
	// Two flips n apart fall in the same parity group and cancel: the
	// fundamental limitation that motivates interleaving choice.
	e := MustEDC(64, 8)
	cw := encode(e, bitvec.New(64))
	cw.Flip(0)
	cw.Flip(8)
	if res, _ := e.DecodeInPlace(cw); res != Clean {
		t.Fatalf("aligned pair should be invisible to EDC8, got %v", res)
	}
}

func TestEDCSyndromeIdentifiesGroups(t *testing.T) {
	e := MustEDC(64, 8)
	cw := encode(e, bitvec.New(64))
	cw.Flip(3)  // group 3
	cw.Flip(12) // group 4
	if syn := e.SyndromeWords(cw); syn != 1<<3|1<<4 {
		t.Fatalf("syndrome = %#x", syn)
	}
}

func TestEDCQuickSingleFlipAlwaysDetected(t *testing.T) {
	e := MustEDC(64, 8)
	prop := func(seed int64, posRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		cw := encode(e, randVec(rng, 64))
		cw.Flip(int(posRaw) % cw.Len())
		res, _ := e.DecodeInPlace(cw)
		return res == Detected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, n int) bitvec.Codeword {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.SetBit(i, rng.Intn(2) == 1)
	}
	return v
}
