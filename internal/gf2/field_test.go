package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldConstruction(t *testing.T) {
	for m := 2; m <= 16; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.N() != 1<<uint(m)-1 {
			t.Fatalf("m=%d n=%d", m, f.N())
		}
	}
	if _, err := NewField(1); err == nil {
		t.Fatal("m=1 should fail")
	}
	if _, err := NewField(17); err == nil {
		t.Fatal("m=17 should fail")
	}
}

func TestNonPrimitivePolyRejected(t *testing.T) {
	// x^4 + 1 = (x+1)^4 is not even irreducible.
	if _, err := NewFieldPoly(4, 0x11); err == nil {
		t.Fatal("expected rejection of non-primitive polynomial")
	}
	// x^4+x^3+x^2+x+1 is irreducible but NOT primitive (order 5).
	if _, err := NewFieldPoly(4, 0x1F); err == nil {
		t.Fatal("expected rejection of irreducible-but-not-primitive polynomial")
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, m := range []int{3, 4, 8} {
		f := mustField(t, m)
		n := f.N() + 1
		// Exhaustive over small fields.
		lim := n
		if m == 8 {
			lim = 64 // sampled for GF(256)
		}
		for ai := 0; ai < lim; ai++ {
			for bi := 0; bi < lim; bi++ {
				a, b := uint16(ai), uint16(bi)
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("m=%d: mul not commutative at %d,%d", m, a, b)
				}
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("m=%d: add not commutative", m)
				}
				if f.Mul(a, 1) != a {
					t.Fatalf("m=%d: 1 not identity for %d", m, a)
				}
				if f.Mul(a, 0) != 0 {
					t.Fatalf("m=%d: 0 not absorbing", m)
				}
			}
		}
	}
}

func TestDistributivityQuick(t *testing.T) {
	f := mustField(t, 8)
	prop := func(a, b, c uint16) bool {
		a, b, c = a&255, b&255, c&255
		left := f.Mul(a, f.Add(b, c))
		right := f.Add(f.Mul(a, b), f.Mul(a, c))
		return left == right
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAssociativityQuick(t *testing.T) {
	f := mustField(t, 10)
	mask := uint16(f.N())
	prop := func(a, b, c uint16) bool {
		a, b, c = a&mask, b&mask, c&mask
		return f.Mul(a, f.Mul(b, c)) == f.Mul(f.Mul(a, b), c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseAndDiv(t *testing.T) {
	for _, m := range []int{4, 7, 9} {
		f := mustField(t, m)
		for a := uint16(1); int(a) <= f.N(); a++ {
			if f.Mul(a, f.Div(1, a)) != 1 {
				t.Fatalf("m=%d: a*(1/a) != 1 for a=%d", m, a)
			}
			if f.Div(a, a) != 1 {
				t.Fatalf("m=%d: a/a != 1", m)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := mustField(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	f.Div(3, 0)
}

func TestExpLogRoundTrip(t *testing.T) {
	f := mustField(t, 8)
	for i := 0; i < f.N(); i++ {
		if got := f.log[f.Exp(i)]; got != i {
			t.Fatalf("log(exp(%d)) = %d", i, got)
		}
	}
	// Exp handles negative and overlarge exponents.
	if f.Exp(-1) != f.Exp(f.N()-1) {
		t.Fatal("Exp(-1) wrong")
	}
	if f.Exp(f.N()) != 1 {
		t.Fatal("Exp(n) should be alpha^0 = 1")
	}
}

// TestPow checks that Exp reduces any exponent mod 2^m-1, so
// Exp(i*k) is (alpha^i)^k: the BCH syndrome and Chien loops rely on it.
func TestPow(t *testing.T) {
	f := mustField(t, 6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		i, k := rng.Intn(f.N()), rng.Intn(200)
		want := uint16(1)
		for j := 0; j < k; j++ {
			want = f.Mul(want, f.Exp(i))
		}
		if got := f.Exp(i * k); got != want {
			t.Fatalf("Exp(%d*%d) = %d, want %d", i, k, got, want)
		}
	}
}

func TestFermat(t *testing.T) {
	// a^(2^m - 1) = 1 for all nonzero a.
	f := mustField(t, 8)
	for a := uint16(1); int(a) <= f.N(); a++ {
		p := uint16(1)
		for j := 0; j < f.N(); j++ {
			p = f.Mul(p, a)
		}
		if p != 1 {
			t.Fatalf("a^(n) != 1 for a=%d", a)
		}
	}
}

func mustField(t *testing.T, m int) *Field {
	t.Helper()
	f, err := NewField(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
