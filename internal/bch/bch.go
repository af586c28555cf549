// Package bch implements shortened systematic binary BCH codes with
// configurable correction capability t. These serve as the paper's
// conventional multi-bit ECC baselines:
//
//	t=1 (+parity)  SECDED-equivalent
//	t=2 (+parity)  DECTED  — double-error-correct, triple-error-detect
//	t=4 (+parity)  QECPED  — quad-error-correct, penta-error-detect
//	t=8 (+parity)  OECNED  — octal-error-correct, nona-error-detect
//
// The decoder uses syndrome computation, Berlekamp–Massey, and Chien
// search over GF(2^m).
package bch

import (
	"fmt"

	"twodcache/internal/bitvec"
	"twodcache/internal/gf2"
)

// Result describes the outcome of decoding a possibly-corrupted codeword.
type Result int

const (
	// Clean means no error was detected.
	Clean Result = iota
	// Corrected means errors were detected and corrected in place.
	Corrected
	// Detected means an uncorrectable error was detected; the codeword
	// was left untouched.
	Detected
)

// String returns a human-readable name for the decode result.
func (r Result) String() string {
	switch r {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Code is an extended shortened binary BCH code over GF(2^m) carrying k
// data bits and correcting up to t bit errors per codeword. An overall
// parity bit is appended, raising the design distance from 2t+1 to
// 2t+2 so that t+1 errors are detected rather than miscorrected.
type Code struct {
	field *gf2.Field
	k     int // data bits
	r     int // BCH parity bits (degree of generator)
	t     int // designed correction capability
	gen   gf2.Poly
}

// New constructs a BCH code for k data bits correcting t errors, with an
// extra overall parity bit for (t+1)-error detection (the paper's
// xECyED convention). It selects the smallest field GF(2^m) whose
// natural code length 2^m-1 accommodates k + deg(g) bits.
func New(k, t int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bch: k=%d must be positive", k)
	}
	if t < 1 {
		return nil, fmt.Errorf("bch: t=%d must be >= 1", t)
	}
	for m := 3; m <= 16; m++ {
		f, err := gf2.NewField(m)
		if err != nil {
			return nil, err
		}
		// Upper bound on parity bits is m*t; check fit before the more
		// expensive generator computation.
		if (1<<uint(m))-1 < k+m*t {
			continue
		}
		gen := generator(f, t)
		r := gen.Degree()
		if (1<<uint(m))-1 < k+r {
			continue
		}
		return &Code{field: f, k: k, r: r, t: t, gen: gen}, nil
	}
	return nil, fmt.Errorf("bch: no field up to GF(2^16) fits k=%d t=%d", k, t)
}

// generator returns g(x) = lcm of the minimal polynomials of
// alpha^1 .. alpha^2t.
func generator(f *gf2.Field, t int) gf2.Poly {
	g := gf2.PolyOne()
	for i := 1; i <= 2*t; i++ {
		g = gf2.Lcm(g, gf2.MinimalPoly(f, i))
	}
	return g
}

// K returns the number of data bits per codeword.
func (c *Code) K() int { return c.k }

// T returns the designed correction capability in bits.
func (c *Code) T() int { return c.t }

// ParityBits returns the number of check bits, the overall parity bit
// included.
func (c *Code) ParityBits() int { return c.r + 1 }

// N returns the total codeword length in bits.
func (c *Code) N() int { return c.k + c.ParityBits() }

// Generator returns the generator polynomial g(x).
func (c *Code) Generator() gf2.Poly { return c.gen }

// bchLen is the length of the BCH portion of the codeword (without the
// extended parity bit).
func (c *Code) bchLen() int { return c.k + c.r }

// Encode produces the systematic codeword for data (length K bits):
// bits [0,r) hold the BCH remainder, bits [r, r+k) the data, and bit
// r+k holds overall even parity.
func (c *Code) Encode(data bitvec.Codeword) bitvec.Codeword {
	if data.Len() != c.k {
		panic(fmt.Sprintf("bch: Encode data length %d != k %d", data.Len(), c.k))
	}
	// Build d(x) * x^r as a polynomial and reduce mod g.
	msg := gf2.Poly{}
	for _, i := range data.Ones() {
		msg = msg.Add(gf2.PolyX(i + c.r))
	}
	rem := msg.Mod(c.gen)
	cw := bitvec.New(c.N())
	for i := 0; i < c.r; i++ {
		if rem.Coeff(i) == 1 {
			cw.SetBit(i, true)
		}
	}
	cw.CopyBits(c.r, data, 0, c.k)
	// Overall even parity across the BCH portion.
	p := 0
	for i := 0; i < c.bchLen(); i++ {
		if cw.Bit(i) {
			p ^= 1
		}
	}
	cw.SetBit(c.bchLen(), p == 1)
	return cw
}

// syndromes returns S_1..S_2t for the BCH portion of cw and whether any
// is nonzero.
func (c *Code) syndromes(cw bitvec.Codeword) ([]uint16, bool) {
	s := make([]uint16, 2*c.t)
	any := false
	for _, pos := range cw.Ones() {
		if pos >= c.bchLen() {
			continue // extended parity bit
		}
		for j := 1; j <= 2*c.t; j++ {
			s[j-1] ^= c.field.Exp(j * pos)
		}
	}
	for _, x := range s {
		if x != 0 {
			any = true
			break
		}
	}
	return s, any
}

// Decode checks and, if possible, corrects cw in place. It returns the
// decode outcome and the number of bits corrected. When the error weight
// exceeds the code's capability the decoder reports Detected where the
// design distance guarantees it (≤ t+1 errors);
// beyond that, like any bounded-distance decoder, it may miscorrect.
func (c *Code) Decode(cw bitvec.Codeword) (Result, int) {
	if cw.Len() != c.N() {
		panic(fmt.Sprintf("bch: codeword length %d != n %d", cw.Len(), c.N()))
	}
	synd, anyErr := c.syndromes(cw)
	p := 0
	for i := 0; i <= c.bchLen(); i++ {
		if cw.Bit(i) {
			p ^= 1
		}
	}
	parityErr := p == 1
	if !anyErr {
		if parityErr {
			// Error confined to the overall parity bit itself.
			cw.Flip(c.bchLen())
			return Corrected, 1
		}
		return Clean, 0
	}
	sigma := berlekampMassey(c.field, synd, c.t)
	nu := len(sigma) - 1 // degree of error locator
	if nu > c.t {
		return Detected, 0
	}
	locs := c.chien(sigma)
	if len(locs) != nu {
		// Locator does not split over the field: error weight exceeds t.
		return Detected, 0
	}
	// Parity consistency: an even/odd mismatch between the claimed
	// correction weight and the overall parity means either the
	// extended parity bit itself is also flipped (correctable while the
	// total weight stays <= t) or there are t+1 errors.
	parityBitFix := false
	if (len(locs)%2 == 1) != parityErr {
		if len(locs) >= c.t {
			return Detected, 0
		}
		parityBitFix = true
	}
	for _, pos := range locs {
		cw.Flip(pos)
	}
	if parityBitFix {
		cw.Flip(c.bchLen())
	}
	// Verify: syndromes of the corrected word must vanish. This catches
	// rare miscorrections that land outside the shortened length.
	if _, still := c.syndromes(cw); still {
		for _, pos := range locs {
			cw.Flip(pos) // roll back
		}
		if parityBitFix {
			cw.Flip(c.bchLen())
		}
		return Detected, 0
	}
	n := len(locs)
	if parityBitFix {
		n++
	}
	return Corrected, n
}

// chien finds error positions: sigma(alpha^{-i}) == 0 marks an error at
// bit position i. Only positions within the shortened length count;
// roots outside it indicate a decoding failure.
func (c *Code) chien(sigma []uint16) []int {
	var locs []int
	f := c.field
	n := c.bchLen()
	for i := 0; i < n; i++ {
		x := f.Exp(-i)
		var acc uint16
		for d := len(sigma) - 1; d >= 0; d-- {
			acc = f.Mul(acc, x) ^ sigma[d]
		}
		if acc == 0 {
			locs = append(locs, i)
		}
	}
	return locs
}

// berlekampMassey computes the error-locator polynomial sigma from the
// syndrome sequence, returning its coefficients sigma[0..nu] with
// sigma[0] == 1.
func berlekampMassey(f *gf2.Field, synd []uint16, t int) []uint16 {
	sigma := []uint16{1}
	b := []uint16{1}
	var l, m int = 0, 1
	var bDelta uint16 = 1
	for n := 0; n < 2*t; n++ {
		// Discrepancy.
		var delta uint16 = synd[n]
		for i := 1; i <= l && i < len(sigma); i++ {
			delta ^= f.Mul(sigma[i], synd[n-i])
		}
		if delta == 0 {
			m++
			continue
		}
		// sigma' = sigma - (delta/bDelta) x^m b
		scale := f.Div(delta, bDelta)
		next := make([]uint16, max(len(sigma), len(b)+m))
		copy(next, sigma)
		for i, bc := range b {
			next[i+m] ^= f.Mul(scale, bc)
		}
		if 2*l <= n {
			l, b, bDelta = n+1-l, sigma, delta
			m = 1
		} else {
			m++
		}
		sigma = next
	}
	// Trim trailing zeros so len(sigma)-1 is the true degree.
	for len(sigma) > 1 && sigma[len(sigma)-1] == 0 {
		sigma = sigma[:len(sigma)-1]
	}
	return sigma
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
