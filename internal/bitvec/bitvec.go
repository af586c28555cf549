// Package bitvec provides the bit vectors and bit matrices used
// throughout the 2D error-coding library.
//
// A Codeword is n bits packed little-endian into uint64 words: a view
// over caller-owned words (MakeCodeword) or over freshly allocated ones
// (New). A Matrix is a rectangular grid of bits held in one word array
// whose rows are Codeword views; row-wise XOR is the fundamental
// operation of interleaved-parity codes and of the 2D recovery process.
package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Codeword is a view of n bits packed little-endian into a []uint64.
// Every operation works in place on the backing words, so the hot
// coding paths (per-access horizontal checks, the delta-XOR vertical
// update) run over caller-owned scratch without a heap allocation.
//
// A Codeword never grows its storage. Bits at positions >= Len inside
// the last backing word are "tail" bits: every operation keeps them
// zero, and so must callers that write the backing words directly.
type Codeword struct {
	n int
	w []uint64
}

// WordsFor returns the number of uint64 words needed to hold n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns a zeroed n-bit Codeword over freshly allocated words. It
// panics if n is negative.
func New(n int) Codeword {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Codeword{n: n, w: make([]uint64, WordsFor(n))}
}

// MakeCodeword returns an n-bit view over buf. It panics if buf is too
// short. Extra words beyond WordsFor(n) are ignored.
func MakeCodeword(buf []uint64, n int) Codeword {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative codeword length %d", n))
	}
	nw := WordsFor(n)
	if len(buf) < nw {
		panic(fmt.Sprintf("bitvec: codeword buffer %d words < %d needed for %d bits", len(buf), nw, n))
	}
	return Codeword{n: n, w: buf[:nw]}
}

// Len returns the number of bits in the view.
func (c Codeword) Len() int { return c.n }

// Words returns the backing word slice of the view.
func (c Codeword) Words() []uint64 { return c.w }

// Bit reports whether bit i is set. It panics if i is out of range.
func (c Codeword) Bit(i int) bool {
	c.check(i)
	return c.w[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetBit sets bit i to val. It panics if i is out of range.
func (c Codeword) SetBit(i int, val bool) {
	c.check(i)
	if val {
		c.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		c.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip inverts bit i. It panics if i is out of range.
func (c Codeword) Flip(i int) {
	c.check(i)
	c.w[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (c Codeword) check(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("bitvec: codeword index %d out of range [0,%d)", i, c.n))
	}
}

// Clone returns a copy of c over freshly allocated words.
func (c Codeword) Clone() Codeword {
	return Codeword{n: c.n, w: slices.Clone(c.w)}
}

// Zero clears every bit.
func (c Codeword) Zero() { clear(c.w) }

// IsZero reports whether no bit is set.
func (c Codeword) IsZero() bool {
	for _, w := range c.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (c Codeword) PopCount() int {
	n := 0
	for _, w := range c.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones returns the indices of all set bits, in ascending order.
func (c Codeword) Ones() []int {
	var idx []int
	for wi, w := range c.w {
		for ; w != 0; w &= w - 1 {
			idx = append(idx, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	return idx
}

// Xor sets c to c XOR other. Both must have equal length.
func (c Codeword) Xor(other Codeword) {
	if c.n != other.n {
		panic(fmt.Sprintf("bitvec: codeword Xor length mismatch %d != %d", c.n, other.n))
	}
	for i := range c.w {
		c.w[i] ^= other.w[i]
	}
}

// Or sets c to c OR other. Both must have equal length.
func (c Codeword) Or(other Codeword) {
	if c.n != other.n {
		panic(fmt.Sprintf("bitvec: codeword Or length mismatch %d != %d", c.n, other.n))
	}
	for i := range c.w {
		c.w[i] |= other.w[i]
	}
}

// CopyFrom overwrites c with the contents of src (equal lengths).
func (c Codeword) CopyFrom(src Codeword) {
	if c.n != src.n {
		panic(fmt.Sprintf("bitvec: codeword CopyFrom length mismatch %d != %d", c.n, src.n))
	}
	copy(c.w, src.w)
}

// CopyBits overwrites the n bits of c at offset off with bits [lo,
// lo+n) of src, 64 bits at a time. Bits outside [off, off+n) are
// untouched. The two ranges must not share storage.
func (c Codeword) CopyBits(off int, src Codeword, lo, n int) {
	if n < 0 || lo < 0 || lo+n > src.n || off < 0 || off+n > c.n {
		panic(fmt.Sprintf("bitvec: CopyBits %d bits from [%d,%d) to [%d,%d) out of range", n, lo, src.n, off, c.n))
	}
	for i := 0; i < n; i += wordBits {
		c.StoreBits(off+i, min(wordBits, n-i), src.Uint64At(lo+i))
	}
}

// Equal reports whether both views hold identical bits and lengths.
func (c Codeword) Equal(other Codeword) bool {
	return c.n == other.n && slices.Equal(c.w, other.w)
}

// Uint64At returns up to 64 bits starting at bit offset off, shifted
// down to bit 0 and zero-padded past the end of the view.
func (c Codeword) Uint64At(off int) uint64 {
	if off < 0 || off > c.n {
		panic(fmt.Sprintf("bitvec: codeword offset %d out of range [0,%d]", off, c.n))
	}
	wi, sh := off/wordBits, uint(off)%wordBits
	if wi >= len(c.w) {
		return 0
	}
	x := c.w[wi] >> sh
	if sh != 0 && wi+1 < len(c.w) {
		x |= c.w[wi+1] << (wordBits - sh)
	}
	if rem := c.n - off; rem < wordBits {
		x &= (1 << uint(rem)) - 1
	}
	return x
}

// StoreBits overwrites the nb bits at offset off with the low nb bits
// of x (nb <= 64). Bits outside [off, off+nb) are untouched.
func (c Codeword) StoreBits(off, nb int, x uint64) {
	if nb < 0 || nb > wordBits {
		panic(fmt.Sprintf("bitvec: StoreBits width %d out of [0,64]", nb))
	}
	if off < 0 || off+nb > c.n {
		panic(fmt.Sprintf("bitvec: StoreBits [%d,%d) out of range [0,%d)", off, off+nb, c.n))
	}
	if nb == 0 {
		return
	}
	mask := ^uint64(0)
	if nb < wordBits {
		mask = (1 << uint(nb)) - 1
	}
	x &= mask
	wi, sh := off/wordBits, uint(off)%wordBits
	c.w[wi] = c.w[wi]&^(mask<<sh) | x<<sh
	if spill := int(sh) + nb - wordBits; spill > 0 {
		hi := uint(wordBits) - sh
		c.w[wi+1] = c.w[wi+1]&^(mask>>hi) | x>>hi
	}
}

// String renders the view as a bit string, bit 0 first.
func (c Codeword) String() string {
	var sb strings.Builder
	sb.Grow(c.n)
	for i := 0; i < c.n; i++ {
		if c.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
