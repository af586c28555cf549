package bch

import (
	"math/rand"
	"testing"

	"twodcache/internal/bitvec"
)

func mustCode(t *testing.T, k, tcap int) *Code {
	t.Helper()
	c, err := New(k, tcap)
	if err != nil {
		t.Fatalf("New(%d,%d): %v", k, tcap, err)
	}
	return c
}

func TestCodeSizes(t *testing.T) {
	// Check-bit counts should match the paper's Hamming-distance
	// estimates: (72,64) SECDED, (79,64) DECTED, (93,64) QECPED,
	// (121,64) OECNED, (266,256) SECDED.
	cases := []struct {
		k, t       int
		wantParity int
	}{
		{64, 1, 8},
		{64, 2, 15},
		{64, 4, 29},
		{64, 8, 57},
		{256, 1, 10},
		{256, 2, 19},
	}
	for _, tc := range cases {
		c := mustCode(t, tc.k, tc.t)
		if c.ParityBits() != tc.wantParity {
			t.Errorf("k=%d t=%d: parity=%d want %d", tc.k, tc.t, c.ParityBits(), tc.wantParity)
		}
		if c.N() != tc.k+tc.wantParity {
			t.Errorf("k=%d t=%d: n=%d", tc.k, tc.t, c.N())
		}
	}
}

func TestEncodeIsSystematic(t *testing.T) {
	c := mustCode(t, 64, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		data := randVec(rng, 64)
		cw := c.Encode(data)
		if !c.Data(cw).Equal(data) {
			t.Fatal("data bits not recoverable from codeword")
		}
	}
}

func TestCleanDecode(t *testing.T) {
	for _, tc := range []struct{ k, t int }{{64, 1}, {64, 2}, {64, 4}, {64, 8}, {256, 2}} {
		c := mustCode(t, tc.k, tc.t)
		rng := rand.New(rand.NewSource(int64(tc.k + tc.t)))
		for i := 0; i < 10; i++ {
			cw := c.Encode(randVec(rng, tc.k))
			res, n := c.Decode(cw)
			if res != Clean || n != 0 {
				t.Fatalf("k=%d t=%d: clean codeword decoded as %v/%d", tc.k, tc.t, res, n)
			}
		}
	}
}

func TestCorrectUpToT(t *testing.T) {
	for _, tc := range []struct{ k, t int }{{64, 1}, {64, 2}, {64, 4}, {64, 8}, {256, 4}} {
		c := mustCode(t, tc.k, tc.t)
		rng := rand.New(rand.NewSource(int64(100*tc.k + tc.t)))
		for trial := 0; trial < 25; trial++ {
			data := randVec(rng, tc.k)
			cw := c.Encode(data)
			nerr := 1 + rng.Intn(tc.t)
			flipped := flipRandom(rng, cw, nerr)
			res, n := c.Decode(cw)
			if res != Corrected {
				t.Fatalf("k=%d t=%d nerr=%d: result=%v", tc.k, tc.t, nerr, res)
			}
			if n != len(flipped) {
				t.Fatalf("k=%d t=%d: corrected %d bits, injected %d", tc.k, tc.t, n, len(flipped))
			}
			if !c.Data(cw).Equal(data) {
				t.Fatalf("k=%d t=%d: data not restored", tc.k, tc.t)
			}
		}
	}
}

func TestDetectTPlusOne(t *testing.T) {
	// Extended codes must *detect* exactly t+1 errors, never miscorrect.
	for _, tc := range []struct{ k, t int }{{64, 1}, {64, 2}, {64, 4}, {64, 8}} {
		c := mustCode(t, tc.k, tc.t)
		rng := rand.New(rand.NewSource(int64(7*tc.k + tc.t)))
		for trial := 0; trial < 25; trial++ {
			data := randVec(rng, tc.k)
			cw := c.Encode(data)
			flipRandom(rng, cw, tc.t+1)
			res, _ := c.Decode(cw)
			if res != Detected {
				t.Fatalf("k=%d t=%d: %d errors gave %v, want detected", tc.k, tc.t, tc.t+1, res)
			}
		}
	}
}

func TestParityBitError(t *testing.T) {
	c := mustCode(t, 64, 2)
	data := randVec(rand.New(rand.NewSource(5)), 64)
	cw := c.Encode(data)
	cw.Flip(c.N() - 1) // the extended parity bit
	res, n := c.Decode(cw)
	if res != Corrected || n != 1 {
		t.Fatalf("parity-bit error: %v/%d", res, n)
	}
	if !c.Data(cw).Equal(data) {
		t.Fatal("data corrupted")
	}
}

func TestPlainCode(t *testing.T) {
	c, err := NewPlain(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.ParityBits() != 14 {
		t.Fatalf("plain DEC parity = %d, want 14", c.ParityBits())
	}
	rng := rand.New(rand.NewSource(9))
	data := randVec(rng, 64)
	cw := c.Encode(data)
	flipRandom(rng, cw, 2)
	if res, _ := c.Decode(cw); res != Corrected {
		t.Fatalf("plain decode = %v", res)
	}
	if !c.Data(cw).Equal(data) {
		t.Fatal("plain data not restored")
	}
}

func TestBadParameters(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(64, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
}

func TestBurstWithinT(t *testing.T) {
	// A contiguous burst of t flips is just a weight-t error pattern.
	c := mustCode(t, 64, 8)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		data := randVec(rng, 64)
		cw := c.Encode(data)
		start := rng.Intn(c.N() - 8)
		for i := 0; i < 8; i++ {
			cw.Flip(start + i)
		}
		res, n := c.Decode(cw)
		if res != Corrected || n != 8 {
			t.Fatalf("burst decode = %v/%d", res, n)
		}
		if !c.Data(cw).Equal(data) {
			t.Fatal("burst data not restored")
		}
	}
}

func TestDecodeDoesNotMutateOnDetect(t *testing.T) {
	c := mustCode(t, 64, 2)
	rng := rand.New(rand.NewSource(13))
	data := randVec(rng, 64)
	cw := c.Encode(data)
	flipRandom(rng, cw, 3) // t+1 => detected
	before := cw.Clone()
	res, _ := c.Decode(cw)
	if res != Detected {
		t.Fatalf("res=%v", res)
	}
	if !cw.Equal(before) {
		t.Fatal("Detected decode mutated codeword")
	}
}

func randVec(rng *rand.Rand, n int) bitvec.Codeword {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.SetBit(i, rng.Intn(2) == 1)
	}
	return v
}

// flipRandom flips exactly n distinct random bits of v and returns their
// positions.
func flipRandom(rng *rand.Rand, v bitvec.Codeword, n int) []int {
	perm := rng.Perm(v.Len())[:n]
	for _, p := range perm {
		v.Flip(p)
	}
	return perm
}
