package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if !v.IsZero() {
			t.Fatalf("New(%d) not zero", n)
		}
		if v.PopCount() != 0 {
			t.Fatalf("PopCount of zero vector = %d", v.PopCount())
		}
	}
}

func TestSetBitFlip(t *testing.T) {
	v := New(130)
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if v.Bit(i) != want {
			t.Fatalf("Bit(%d) = %v, want %v", i, v.Bit(i), want)
		}
	}
	if v.PopCount() != 3 {
		t.Fatalf("PopCount = %d, want 3", v.PopCount())
	}
	v.Flip(64)
	if v.Bit(64) {
		t.Fatal("Flip did not clear bit 64")
	}
	v.Set(0, false)
	if v.Bit(0) {
		t.Fatal("Set(0,false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Bit(10) },
		func() { New(10).Bit(-1) },
		func() { New(10).Set(10, true) },
		func() { New(10).Flip(-1) },
		func() { New(-1) },
		func() { New(8).Xor(New(9)) },
		func() { New(8).Slice(3, 9) },
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
		a, b := randomVec(rng, n), randomVec(rng, n)
		orig := a.Clone()
		a.Xor(b)
		a.Xor(b)
		if !a.Equal(orig) {
			t.Fatalf("xor twice != identity at n=%d", n)
		}
	}
}

func TestOnesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		v := randomVec(rng, n)
		ones := v.Ones()
		if len(ones) != v.PopCount() {
			t.Fatalf("len(Ones)=%d popcount=%d", len(ones), v.PopCount())
		}
		rebuilt := New(n)
		for _, i := range ones {
			rebuilt.Set(i, true)
		}
		if !rebuilt.Equal(v) {
			t.Fatal("rebuilding from Ones() differs")
		}
	}
}

func TestParityMatchesPopCount(t *testing.T) {
	f := func(words []uint64) bool {
		n := len(words) * 64
		if n == 0 {
			return true
		}
		v := New(n)
		for i, w := range words {
			for b := 0; b < 64; b++ {
				if w&(1<<uint(b)) != 0 {
					v.Set(i*64+b, true)
				}
			}
		}
		return v.Parity() == v.PopCount()%2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceAndSetSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomVec(rng, 200)
	s := v.Slice(37, 150)
	if s.Len() != 113 {
		t.Fatalf("slice len = %d", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.Bit(i) != v.Bit(37+i) {
			t.Fatalf("slice bit %d mismatch", i)
		}
	}
	w := New(200)
	w.SetSlice(37, s)
	for i := 0; i < 113; i++ {
		if w.Bit(37+i) != v.Bit(37+i) {
			t.Fatalf("SetSlice bit %d mismatch", i)
		}
	}
}

func TestParseString(t *testing.T) {
	v, err := Parse("10110")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "10110" {
		t.Fatalf("round trip = %q", v.String())
	}
	if _, err := Parse("10x"); err == nil {
		t.Fatal("expected error for invalid char")
	}
}

func TestAndOr(t *testing.T) {
	a, _ := Parse("1100")
	b, _ := Parse("1010")
	x := a.Clone()
	x.And(b)
	if x.String() != "1000" {
		t.Fatalf("And = %s", x)
	}
	y := a.Clone()
	y.Or(b)
	if y.String() != "1110" {
		t.Fatalf("Or = %s", y)
	}
}

func TestCopyFromAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomVec(rng, 99)
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
}

func randomVec(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}
