package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyBasics(t *testing.T) {
	p := PolyFromBits(0b1011) // x^3 + x + 1
	if p.Degree() != 3 {
		t.Fatalf("degree = %d", p.Degree())
	}
	if p.String() != "x^3+x+1" {
		t.Fatalf("string = %q", p.String())
	}
	if p.Coeff(0) != 1 || p.Coeff(1) != 1 || p.Coeff(2) != 0 || p.Coeff(3) != 1 {
		t.Fatal("coefficients wrong")
	}
	z := Poly{}
	if !z.IsZero() || z.Degree() != -1 || z.String() != "0" {
		t.Fatal("zero polynomial misbehaves")
	}
}

func TestPolyX(t *testing.T) {
	for _, k := range []int{0, 1, 63, 64, 65, 200} {
		p := PolyX(k)
		if p.Degree() != k {
			t.Fatalf("PolyX(%d).Degree() = %d", k, p.Degree())
		}
		if p.Coeff(k) != 1 {
			t.Fatalf("PolyX(%d) top coeff missing", k)
		}
	}
}

func TestPolyAddSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := randPoly(rng, 300)
		if !p.Add(p).IsZero() {
			t.Fatal("p + p != 0 in GF(2)")
		}
	}
}

func TestPolyMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		a, b, c := randPoly(rng, 100), randPoly(rng, 100), randPoly(rng, 100)
		left := a.Mul(b.Add(c))
		right := a.Mul(b).Add(a.Mul(c))
		if !left.Equal(right) {
			t.Fatal("multiplication does not distribute")
		}
	}
}

func TestPolyMulDegree(t *testing.T) {
	a := PolyFromBits(0b101) // x^2+1
	b := PolyFromBits(0b11)  // x+1
	prod := a.Mul(b)
	// (x^2+1)(x+1) = x^3+x^2+x+1
	if !prod.Equal(PolyFromBits(0b1111)) {
		t.Fatalf("product = %s", prod)
	}
}

func TestPolyDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := randPoly(rng, 200)
		q := randPoly(rng, 80)
		if q.IsZero() {
			continue
		}
		quot, rem := p.DivMod(q)
		if rem.Degree() >= q.Degree() {
			t.Fatalf("remainder degree %d >= divisor degree %d", rem.Degree(), q.Degree())
		}
		back := quot.Mul(q).Add(rem)
		if !back.Equal(p) {
			t.Fatal("quot*q + rem != p")
		}
		if !p.Mod(q).Equal(rem) {
			t.Fatal("Mod disagrees with DivMod")
		}
	}
}

func TestPolyModByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PolyOne().Mod(Poly{})
}

func TestGcdLcm(t *testing.T) {
	a := PolyFromBits(0b110) // x^2+x = x(x+1)
	b := PolyFromBits(0b10)  // x
	g := Gcd(a, b)
	if !g.Equal(b) {
		t.Fatalf("gcd = %s, want x", g)
	}
	l := Lcm(a, b)
	if !l.Equal(a) {
		t.Fatalf("lcm = %s, want x^2+x", l)
	}
}

func TestMinimalPolyGF16(t *testing.T) {
	// Classic table for GF(2^4) with p(x)=x^4+x+1 (Lin & Costello Table 2.9):
	f := mustField(t, 4)
	cases := map[int]uint64{
		1: 0b10011, // x^4+x+1
		3: 0b11111, // x^4+x^3+x^2+x+1
		5: 0b111,   // x^2+x+1
		7: 0b11001, // x^4+x^3+1
	}
	for i, bits := range cases {
		got := MinimalPoly(f, i)
		want := PolyFromBits(bits)
		if !got.Equal(want) {
			t.Fatalf("minpoly(alpha^%d) = %s, want %s", i, got, want)
		}
	}
}

func TestMinimalPolyHasRoot(t *testing.T) {
	// alpha^i must be a root of its own minimal polynomial.
	f := mustField(t, 8)
	for i := 1; i < 20; i++ {
		p := MinimalPoly(f, i)
		root := f.Exp(i)
		// Evaluate p at root over GF(2^m).
		var acc uint16
		for k := p.Degree(); k >= 0; k-- {
			acc = f.Mul(acc, root)
			if p.Coeff(k) == 1 {
				acc ^= 1
			}
		}
		if acc != 0 {
			t.Fatalf("minpoly(alpha^%d)(alpha^%d) = %d, want 0", i, i, acc)
		}
	}
}

func TestPolyMulCommutesQuick(t *testing.T) {
	prop := func(a, b uint64) bool {
		pa, pb := PolyFromBits(a), PolyFromBits(b)
		return pa.Mul(pb).Equal(pb.Mul(pa))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randPoly(rng *rand.Rand, maxDeg int) Poly {
	p := Poly{}
	deg := rng.Intn(maxDeg + 1)
	for i := 0; i <= deg; i++ {
		if rng.Intn(2) == 1 {
			p = p.flipCoeff(i)
		}
	}
	return p
}
