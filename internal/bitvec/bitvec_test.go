package bitvec

import (
	"math/rand"
	"testing"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		c := New(n)
		if c.Len() != n || len(c.Words()) != WordsFor(n) {
			t.Fatalf("New(%d): Len %d over %d words", n, c.Len(), len(c.Words()))
		}
		if !c.IsZero() || c.PopCount() != 0 {
			t.Fatalf("New(%d) not zero", n)
		}
	}
}

// TestMakeCodewordBasics: a view over a caller's buffer covers its first
// WordsFor(n) words and writes through to them.
func TestMakeCodewordBasics(t *testing.T) {
	buf := make([]uint64, 4)
	c := MakeCodeword(buf, 130)
	if c.Len() != 130 || len(c.Words()) != 3 {
		t.Fatalf("len=%d words=%d", c.Len(), len(c.Words()))
	}
	c.SetBit(129, true)
	if buf[2] != 1<<1 {
		t.Fatalf("view does not write through: buf[2] = %#x", buf[2])
	}
	c.Zero()
	if !c.IsZero() || buf[2] != 0 {
		t.Fatal("Zero left bits set")
	}
}

func TestSetBitFlip(t *testing.T) {
	c := New(130)
	c.SetBit(0, true)
	c.SetBit(64, true)
	c.SetBit(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if c.Bit(i) != want {
			t.Fatalf("Bit(%d) = %v, want %v", i, c.Bit(i), want)
		}
	}
	if c.PopCount() != 3 {
		t.Fatalf("PopCount = %d, want 3", c.PopCount())
	}
	c.Flip(64)
	if c.Bit(64) {
		t.Fatal("Flip did not clear bit 64")
	}
	c.SetBit(0, false)
	if c.Bit(0) {
		t.Fatal("SetBit(0, false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Bit(10) },
		func() { New(10).Bit(-1) },
		func() { New(10).SetBit(10, true) },
		func() { New(10).Flip(-1) },
		func() { New(-1) },
		func() { MakeCodeword(make([]uint64, 1), 65) },
		func() { New(8).Xor(New(9)) },
		func() { New(8).Or(New(9)) },
		func() { New(8).CopyFrom(New(9)) },
		func() { New(8).Uint64At(9) },
		func() { New(8).StoreBits(4, 5, 0) },
		func() { New(8).CopyBits(0, New(8), 3, 6) },
		func() { New(8).CopyBits(3, New(8), 0, 6) },
		func() { NewMatrix(2, 70).Bit(0, 70) },
		func() { NewMatrix(2, 70).Flip(2, 0) },
		func() { NewMatrix(2, 70).Set(-1, 0, true) },
		func() { NewMatrix(2, 70).RowWords(2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestXorSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := randomCodeword(rng, n), randomCodeword(rng, n)
		orig := a.Clone()
		a.Xor(b)
		a.Xor(b)
		if !a.Equal(orig) {
			t.Fatalf("xor twice != identity at n=%d", n)
		}
	}
}

func TestOr(t *testing.T) {
	a, b := New(4), New(4)
	a.SetBit(0, true)
	a.SetBit(1, true)
	b.SetBit(0, true)
	b.SetBit(2, true)
	a.Or(b)
	if a.String() != "1110" || b.String() != "1010" {
		t.Fatalf("Or = %s (other %s), want 1110 (1010)", a, b)
	}
}

func TestOnesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		c := randomCodeword(rng, n)
		ones := c.Ones()
		if len(ones) != c.PopCount() {
			t.Fatalf("len(Ones)=%d popcount=%d", len(ones), c.PopCount())
		}
		rebuilt := New(n)
		for _, i := range ones {
			rebuilt.SetBit(i, true)
		}
		if !rebuilt.Equal(c) {
			t.Fatal("rebuilding from Ones() differs")
		}
	}
}

// TestCopyFromAndEqual also pins Clone: a copy over its own words.
func TestCopyFromAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCodeword(rng, 99)
	b := New(99)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom not equal")
	}
	b.Flip(42)
	if a.Equal(b) {
		t.Fatal("Equal after flip")
	}
	if a.Equal(New(98)) {
		t.Fatal("Equal across lengths")
	}
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("Clone not equal")
	}
	c.Flip(42)
	if a.Equal(c) {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestCodewordUint64AtStoreBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	for trial := 0; trial < 200; trial++ {
		ref := randomCodeword(rng, n)
		c := ref.Clone()
		off := rng.Intn(n + 1)
		// Uint64At must agree with a bit-by-bit read.
		var want uint64
		for i := 0; i < 64 && off+i < n; i++ {
			if ref.Bit(off + i) {
				want |= 1 << uint(i)
			}
		}
		if got := c.Uint64At(off); got != want {
			t.Fatalf("Uint64At(%d) = %#x want %#x", off, got, want)
		}
		// StoreBits round-trips through bit reads.
		nb := min(rng.Intn(65), n-off)
		x := rng.Uint64()
		c.StoreBits(off, nb, x)
		for i := 0; i < nb; i++ {
			if c.Bit(off+i) != (x&(1<<uint(i)) != 0) {
				t.Fatalf("StoreBits(%d,%d) bit %d wrong", off, nb, i)
			}
		}
		// Bits outside the stored span must be untouched.
		for i := 0; i < n; i++ {
			if (i < off || i >= off+nb) && c.Bit(i) != ref.Bit(i) {
				t.Fatalf("StoreBits(%d,%d) clobbered bit %d", off, nb, i)
			}
		}
	}
}

// TestCopyBits checks CopyBits against a bit-by-bit copy over random
// source and destination lengths, offsets and counts. Equal compares
// whole words, so it also pins the destination's tail bits at zero.
func TestCopyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		src := randomCodeword(rng, 1+rng.Intn(300))
		dst := randomCodeword(rng, 1+rng.Intn(300))
		n := rng.Intn(min(src.Len(), dst.Len()) + 1)
		lo, off := rng.Intn(src.Len()-n+1), rng.Intn(dst.Len()-n+1)
		want := dst.Clone()
		for i := 0; i < n; i++ {
			want.SetBit(off+i, src.Bit(lo+i))
		}
		dst.CopyBits(off, src, lo, n)
		if !dst.Equal(want) {
			t.Fatalf("CopyBits(%d, %d-bit src, %d, %d):\n got %s\nwant %s", off, src.Len(), lo, n, dst, want)
		}
	}
}

func randomCodeword(rng *rand.Rand, n int) Codeword {
	c := New(n)
	for i := 0; i < n; i++ {
		c.SetBit(i, rng.Intn(2) == 1)
	}
	return c
}
