// Package bitvec provides dense bit vectors and two-dimensional bit
// matrices used throughout the 2D error-coding library.
//
// A Vector is a fixed-width sequence of bits packed into 64-bit words.
// A Matrix is a rectangular grid of bits with efficient row-wise XOR,
// the fundamental operation of interleaved-parity codes and of the 2D
// recovery process.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector;
// use New to create one with a given width.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed Vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Bit reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Bit(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to val. It panics if i is out of range.
func (v *Vector) Set(i int, val bool) {
	v.check(i)
	if val {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip inverts bit i. It panics if i is out of range.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v with the contents of src. Both must have equal length.
func (v *Vector) CopyFrom(src *Vector) {
	if v.n != src.n {
		panic(fmt.Sprintf("bitvec: CopyFrom length mismatch %d != %d", v.n, src.n))
	}
	copy(v.words, src.words)
}

// Xor sets v to v XOR other. Both must have equal length.
func (v *Vector) Xor(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: Xor length mismatch %d != %d", v.n, other.n))
	}
	for i := range v.words {
		v.words[i] ^= other.words[i]
	}
}

// And sets v to v AND other. Both must have equal length.
func (v *Vector) And(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: And length mismatch %d != %d", v.n, other.n))
	}
	for i := range v.words {
		v.words[i] &= other.words[i]
	}
}

// Or sets v to v OR other. Both must have equal length.
func (v *Vector) Or(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: Or length mismatch %d != %d", v.n, other.n))
	}
	for i := range v.words {
		v.words[i] |= other.words[i]
	}
}

// Zero clears every bit.
func (v *Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether v and other hold identical bits (and equal lengths).
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits, in ascending order.
func (v *Vector) Ones() []int {
	var idx []int
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			idx = append(idx, wi*wordBits+b)
			w &= w - 1
		}
	}
	return idx
}

// AppendUint64 grows the vector by nb bits (nb <= 64) holding the low
// nb bits of x, returning v for chaining.
func (v *Vector) AppendUint64(x uint64, nb int) *Vector {
	if nb < 0 || nb > wordBits {
		panic(fmt.Sprintf("bitvec: AppendUint64 width %d out of [0,64]", nb))
	}
	off := v.n
	v.n += nb
	for len(v.words) < WordsFor(v.n) {
		v.words = append(v.words, 0)
	}
	MakeCodeword(v.words, v.n).StoreBits(off, nb, x)
	return v
}

// Uint64At returns up to 64 bits starting at bit offset off, shifted
// down to bit 0 and zero-padded past the end of the vector.
func (v *Vector) Uint64At(off int) uint64 {
	return v.AsCodeword().Uint64At(off)
}

// Uint64 returns the low 64 bits of the vector as a uint64.
func (v *Vector) Uint64() uint64 {
	if len(v.words) == 0 {
		return 0
	}
	x := v.words[0]
	if v.n < 64 {
		x &= (1 << uint(v.n)) - 1
	}
	return x
}

// Slice returns a new Vector holding bits [lo, hi) of v.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: Slice [%d,%d) out of range [0,%d)", lo, hi, v.n))
	}
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Bit(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// SetSlice writes src into v starting at bit offset off.
func (v *Vector) SetSlice(off int, src *Vector) {
	if off < 0 || off+src.n > v.n {
		panic(fmt.Sprintf("bitvec: SetSlice [%d,%d) out of range [0,%d)", off, off+src.n, v.n))
	}
	for i := 0; i < src.n; i++ {
		v.Set(off+i, src.Bit(i))
	}
}

// Parity returns the XOR of all bits (1 if odd number of set bits).
func (v *Vector) Parity() int {
	var acc uint64
	for _, w := range v.words {
		acc ^= w
	}
	return bits.OnesCount64(acc) & 1
}

// String renders the vector as a bit string, bit 0 first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse builds a Vector from a bit string of '0'/'1' runes (bit 0 first).
func Parse(s string) (*Vector, error) {
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at position %d", r, i)
		}
	}
	return v, nil
}
