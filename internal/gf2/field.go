// Package gf2 implements arithmetic in the binary Galois fields GF(2^m)
// and polynomials over GF(2). It is the mathematical substrate for the
// BCH error-correcting codes used as the paper's conventional-ECC
// baselines (DECTED, QECPED, OECNED).
package gf2

import "fmt"

// defaultPrimitive maps field degree m to a primitive polynomial for
// GF(2^m), expressed as a bit mask including the x^m term. These are the
// standard primitive trinomials/pentanomials used in coding texts
// (Lin & Costello, App. A).
var defaultPrimitive = map[int]uint32{
	2:  0x7,    // x^2 + x + 1
	3:  0xB,    // x^3 + x + 1
	4:  0x13,   // x^4 + x + 1
	5:  0x25,   // x^5 + x^2 + 1
	6:  0x43,   // x^6 + x + 1
	7:  0x89,   // x^7 + x^3 + 1
	8:  0x11D,  // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,  // x^9 + x^4 + 1
	10: 0x409,  // x^10 + x^3 + 1
	11: 0x805,  // x^11 + x^2 + 1
	12: 0x1053, // x^12 + x^6 + x^4 + x + 1
	13: 0x201B, // x^13 + x^4 + x^3 + x + 1
	14: 0x4443, // x^14 + x^10 + x^6 + x + 1
	15: 0x8003, // x^15 + x + 1
	16: 0x1100B,
}

// Field represents GF(2^m) with exp/log tables for O(1) multiplication.
type Field struct {
	size int // 2^m
	poly uint32
	exp  []uint16 // exp[i] = alpha^i, length 2*(size-1) to avoid mod
	log  []int    // log[x] = i such that alpha^i = x; log[0] undefined (-1)
}

// NewField constructs GF(2^m) using the package's default primitive
// polynomial for m. Supported m: 2..16.
func NewField(m int) (*Field, error) {
	p, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("gf2: unsupported field degree m=%d (want 2..16)", m)
	}
	return NewFieldPoly(m, p)
}

// MustField is NewField that panics on error; for use with known-good m.
func MustField(m int) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFieldPoly constructs GF(2^m) from an explicit primitive polynomial
// (bit i of poly is the coefficient of x^i; bit m must be set).
func NewFieldPoly(m int, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf2: field degree m=%d out of range [2,16]", m)
	}
	if poly>>uint(m) != 1 {
		return nil, fmt.Errorf("gf2: polynomial %#x is not monic of degree %d", poly, m)
	}
	f := &Field{size: 1 << uint(m), poly: poly}
	n := f.size - 1
	f.exp = make([]uint16, 2*n)
	f.log = make([]int, f.size)
	for i := range f.log {
		f.log[i] = -1
	}
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = uint16(x)
		if f.log[x] != -1 {
			return nil, fmt.Errorf("gf2: polynomial %#x is not primitive for m=%d", poly, m)
		}
		f.log[x] = i
		x <<= 1
		if x&(1<<uint(m)) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf2: polynomial %#x is not primitive for m=%d (period mismatch)", poly, m)
	}
	copy(f.exp[n:], f.exp[:n])
	return f, nil
}

// Size returns 2^m, the number of field elements.
func (f *Field) Size() int { return f.size }

// N returns 2^m - 1, the multiplicative group order (natural BCH length).
func (f *Field) N() int { return f.size - 1 }

// Add returns a + b (XOR in characteristic 2).
func (f *Field) Add(a, b uint16) uint16 { return a ^ b }

// Mul returns the product a*b in the field.
func (f *Field) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b. It panics if b == 0.
func (f *Field) Div(a, b uint16) uint16 {
	if b == 0 {
		panic("gf2: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := f.log[a] - f.log[b]
	if d < 0 {
		d += f.N()
	}
	return f.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func (f *Field) Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf2: inverse of zero")
	}
	return f.exp[f.N()-f.log[a]]
}

// Exp returns alpha^i for any integer i (reduced mod 2^m-1).
func (f *Field) Exp(i int) uint16 {
	n := f.N()
	i %= n
	if i < 0 {
		i += n
	}
	return f.exp[i]
}

// Log returns the discrete log of a (the i with alpha^i == a).
// It panics if a == 0.
func (f *Field) Log(a uint16) int {
	if a == 0 {
		panic("gf2: log of zero")
	}
	return f.log[a]
}

// Pow returns a^k for k >= 0.
func (f *Field) Pow(a uint16, k int) uint16 {
	if a == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if k == 0 {
		return 1
	}
	e := (f.log[a] * k) % f.N()
	if e < 0 {
		e += f.N()
	}
	return f.exp[e]
}
