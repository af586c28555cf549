package bitvec

import (
	"fmt"
	"math/bits"
)

// Codeword is an unowned, allocation-free view of n bits packed
// little-endian into a caller-owned []uint64. It is the word-kernel
// counterpart of Vector: every operation works in place on the backing
// words, so the hot coding paths (per-access horizontal checks, the
// delta-XOR vertical update) can run without a single heap allocation.
//
// A Codeword never owns or grows its storage. Bits at positions >= Len
// inside the last backing word are "tail" bits: kernel operations keep
// them zero, and so must callers that write the backing words directly.
type Codeword struct {
	n int
	w []uint64
}

// WordsFor returns the number of uint64 words needed to hold n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

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

// AsCodeword returns a Codeword view sharing v's storage: mutations
// through the view mutate the vector. It lets code that holds words as
// Vectors, such as the BCH coder's scratch, call the word kernels
// without copying.
func (v *Vector) AsCodeword() Codeword { return Codeword{n: v.n, w: v.words} }

// Words exposes v's backing words (little-endian bit order). Mutating
// them mutates the vector; bits >= Len in the last word must stay zero.
func (v *Vector) Words() []uint64 { return v.words }

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

// Zero clears every bit.
func (c Codeword) Zero() {
	for i := range c.w {
		c.w[i] = 0
	}
}

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

// Parity returns the XOR of all bits.
func (c Codeword) Parity() int {
	var acc uint64
	for _, w := range c.w {
		acc ^= w
	}
	return bits.OnesCount64(acc) & 1
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

// CopyFrom overwrites c with the contents of src (equal lengths).
func (c Codeword) CopyFrom(src Codeword) {
	if c.n != src.n {
		panic(fmt.Sprintf("bitvec: codeword CopyFrom length mismatch %d != %d", c.n, src.n))
	}
	copy(c.w, src.w)
}

// Equal reports whether both views hold identical bits and lengths.
func (c Codeword) Equal(other Codeword) bool {
	if c.n != other.n {
		return false
	}
	for i := range c.w {
		if c.w[i] != other.w[i] {
			return false
		}
	}
	return true
}

// Uint64 returns the low 64 bits of the view.
func (c Codeword) Uint64() uint64 {
	if len(c.w) == 0 {
		return 0
	}
	x := c.w[0]
	if c.n < wordBits {
		x &= (1 << uint(c.n)) - 1
	}
	return x
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

// Slice returns an in-place sub-view of bits [lo, hi). lo must be
// word-aligned (a multiple of 64) so the view can share storage; use
// Uint64At for arbitrary offsets.
func (c Codeword) Slice(lo, hi int) Codeword {
	if lo < 0 || hi > c.n || lo > hi {
		panic(fmt.Sprintf("bitvec: codeword Slice [%d,%d) out of range [0,%d)", lo, hi, c.n))
	}
	if lo%wordBits != 0 {
		panic(fmt.Sprintf("bitvec: codeword Slice offset %d not word-aligned", lo))
	}
	return Codeword{n: hi - lo, w: c.w[lo/wordBits : WordsFor(hi)]}
}
