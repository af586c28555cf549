// Package twod implements the paper's primary contribution: a memory
// array protected by two-dimensional error coding. A light-weight
// horizontal per-word code (interleaved-parity EDCn, or Hsiao SECDED
// for in-line single-bit correction and yield enhancement) is checked
// on every read, while interleaved vertical parity rows — maintained in
// the background via read-before-write delta updates — are consulted
// only by the rare recovery process to reconstruct large clustered
// errors, row failures, and column failures.
package twod

import (
	"fmt"
	"math/bits"
)

// Layout describes the physical geometry of one protected sub-array:
// how many logical words share a physical row and how their codeword
// bits are interleaved along the wordline.
//
// With d-way physical bit interleaving, physical column c of a row
// holds bit c/d of word c%d, so a contiguous physical burst of up to
// d*n bits touches each word's EDCn parity groups at most once per
// group (paper §2.2, §3). Every array in this package moves a whole
// codeword in or out of a row through gather and scatterXor, and
// Array's row methods move all d at once through gatherRow and
// interleave; PhysColumn and Locate address single bits.
type Layout struct {
	// Rows is the number of data rows in the array (excluding vertical
	// parity rows).
	Rows int
	// WordsPerRow is the physical interleave degree d.
	WordsPerRow int
	// CodewordBits is the per-word codeword size (data + check bits).
	CodewordBits int
}

// Validate checks the geometry.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.WordsPerRow <= 0 || l.CodewordBits <= 0 {
		return fmt.Errorf("twod: invalid layout %+v", l)
	}
	return nil
}

// RowBits returns the physical row width in bits.
func (l Layout) RowBits() int { return l.WordsPerRow * l.CodewordBits }

// PhysColumn maps (word index within row, bit index within codeword) to
// a physical column.
func (l Layout) PhysColumn(word, bit int) int {
	if word < 0 || word >= l.WordsPerRow {
		panic(fmt.Sprintf("twod: word %d out of range [0,%d)", word, l.WordsPerRow))
	}
	if bit < 0 || bit >= l.CodewordBits {
		panic(fmt.Sprintf("twod: bit %d out of range [0,%d)", bit, l.CodewordBits))
	}
	return bit*l.WordsPerRow + word
}

// Locate maps a physical column back to (word index, codeword bit).
func (l Layout) Locate(col int) (word, bit int) {
	if col < 0 || col >= l.RowBits() {
		panic(fmt.Sprintf("twod: column %d out of range [0,%d)", col, l.RowBits()))
	}
	return col % l.WordsPerRow, col / l.WordsPerRow
}

// Words returns the total number of addressable words in the array.
func (l Layout) Words() int { return l.Rows * l.WordsPerRow }

// gather copies word w's codeword out of the interleaved row bits src
// into the first bitvec.WordsFor(CodewordBits) words of dst. Codeword
// bit b is physical column b*d+w, as in PhysColumn; the bits of those
// words past CodewordBits come out zero.
//
// For d = 2, 4 and 8, the degrees the benchmark and the default
// caches build, row word i holds codeword bits [i·s, (i+1)·s), s = 64/d,
// of every word in the row: bit j·d+w of the row word is bit i·s+j of
// word w. gather takes such a chunk in one step (shift by w, mask every
// d-th bit, pack into s contiguous bits) and scatterXor spreads it
// back. d = 1 is a copy. Every other d (tag arrays with three ways,
// lines past 64 bytes, tag arrays past eight ways) goes bit by bit.
func (l Layout) gather(dst, src []uint64, w int) {
	nb, d := l.CodewordBits, l.WordsPerRow
	n := (nb + 63) >> 6
	switch d {
	case 1:
		// Contiguous layout: the codeword is the row prefix.
		copy(dst[:n], src)
	case 2, 4, 8:
		s, sh := uint(64/d), uint(w)
		rowWords := (nb*d + 63) >> 6
		for q := range dst[:n] {
			var x uint64
			for m, v := range src[q*d : min(q*d+d, rowWords)] {
				v >>= sh
				switch d {
				case 2:
					v = pack2(v)
				case 4:
					v = pack4(v)
				default:
					v = pack8(v)
				}
				x |= v << (s * uint(m))
			}
			dst[q] = x
		}
	default:
		col := w
		for i := range dst[:n] {
			var x uint64
			for b := range min(64, nb-i<<6) {
				x |= (src[col>>6] >> uint(col&63) & 1) << uint(b)
				col += d
			}
			dst[i] = x
		}
	}
	if rem := nb & 63; rem != 0 {
		dst[n-1] &= 1<<uint(rem) - 1
	}
}

// scatterXor flips, in each of the interleaved rows, the physical column
// of every bit of word w's codeword that is set in delta: gather's
// inverse for a delta, so applying it to the row a codeword was gathered
// from, with delta = old XOR new, stores new. delta's bits past
// CodewordBits must be zero.
func (l Layout) scatterXor(w int, delta []uint64, rows ...[]uint64) {
	d := l.WordsPerRow
	if d != 1 && d != 2 && d != 4 && d != 8 {
		for i, x := range delta {
			base := i << 6
			for x != 0 {
				col := (base+bits.TrailingZeros64(x))*d + w
				x &= x - 1
				mask := uint64(1) << uint(col&63)
				for _, row := range rows {
					row[col>>6] ^= mask
				}
			}
		}
		return
	}
	// Chunk m of delta word q is row word q·d+m; only non-zero chunks
	// touch the rows.
	s, sh := 64/d, uint(w)
	chunk := ^uint64(0) >> uint(64-s)
	for q, x := range delta {
		for x != 0 {
			m := bits.TrailingZeros64(x) / s
			v := x >> uint(m*s) & chunk
			x &^= chunk << uint(m*s)
			switch d {
			case 1: // the chunk is the whole row word
			case 2:
				v = spread2(v)
			case 4:
				v = spread4(v)
			case 8:
				v = spread8(v)
			}
			v <<= sh
			for _, row := range rows {
				row[q*d+m] ^= v
			}
		}
	}
}

// store overwrites word w's codeword in row with cw, using delta (as
// many words as cw) as scratch for old XOR new.
func (l Layout) store(row []uint64, w int, cw, delta []uint64) {
	l.gather(delta, row, w)
	for i, x := range cw {
		delta[i] ^= x
	}
	l.scatterXor(w, delta, row)
}

// gatherRow de-interleaves every word of row src into dst: word k's
// codeword lands in dst[k·n:(k+1)·n], n = bitvec.WordsFor(CodewordBits),
// with its bits past CodewordBits zero. For d = 8, row word i is an 8×8
// bit matrix whose transpose holds byte i of every codeword, one per
// byte (Hacker's Delight §7-3), so nine transposes and two byte-matrix
// transposes de-interleave a 72-bit line; other d gather word by word.
func (l Layout) gatherRow(dst, src []uint64) {
	nb, d := l.CodewordBits, l.WordsPerRow
	n := (nb + 63) >> 6
	if d != 8 {
		for k := range d {
			l.gather(dst[k*n:(k+1)*n], src, k)
		}
		return
	}
	rowWords := (nb + 7) >> 3
	var blk [8]uint64
	for q := range n {
		for j := range blk {
			blk[j] = 0
			if i := q<<3 + j; i < rowWords {
				blk[j] = transpose8(src[i])
			}
		}
		transposeBytes(&blk)
		for k, x := range blk {
			dst[k*n+q] = x
		}
	}
	if rem := nb & 63; rem != 0 {
		for k := range d {
			dst[k*n+n-1] &= 1<<uint(rem) - 1
		}
	}
}

// interleave is gatherRow's inverse: it writes into dst the row that
// holds the d codewords laid out in src as gatherRow leaves them. Their
// bits past CodewordBits must be zero, so dst's bits past RowBits come
// out zero.
func (l Layout) interleave(dst, src []uint64) {
	nb, d := l.CodewordBits, l.WordsPerRow
	n := (nb + 63) >> 6
	if d != 8 {
		clear(dst)
		for k := range d {
			l.scatterXor(k, src[k*n:(k+1)*n], dst)
		}
		return
	}
	rowWords := (nb + 7) >> 3
	var blk [8]uint64
	for q := range n {
		for k := range blk {
			blk[k] = src[k*n+q]
		}
		transposeBytes(&blk)
		for j, x := range blk {
			if i := q<<3 + j; i < rowWords {
				dst[i] = transpose8(x)
			}
		}
	}
}

// every8 has every 8th bit set, from bit 0.
const every8 = 0x0101010101010101

// pack2 packs bits 0, 2, …, 62 of x into bits 0…31.
func pack2(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0x00000000FFFFFFFF
}

// pack4 packs bits 0, 4, …, 60 of x into bits 0…15.
func pack4(x uint64) uint64 {
	x &= 0x1111111111111111
	x = (x | x>>3) & 0x0303030303030303
	x = (x | x>>6) & 0x000F000F000F000F
	x = (x | x>>12) & 0x000000FF000000FF
	return (x | x>>24) & 0x000000000000FFFF
}

// pack8 packs bits 0, 8, …, 56 of x into bits 0…7: the multiply sends
// bit 8j to bit 56+j, and every other partial product lands below bit
// 56 without a carry or above bit 63.
func pack8(x uint64) uint64 { return (x & every8) * 0x0102040810204080 >> 56 }

// spread2 is pack2's inverse: bits 0…31 of x go to bits 0, 2, …, 62.
func spread2(x uint64) uint64 {
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// spread4 is pack4's inverse: bits 0…15 of x go to bits 0, 4, …, 60.
func spread4(x uint64) uint64 {
	x = (x | x<<24) & 0x000000FF000000FF
	x = (x | x<<12) & 0x000F000F000F000F
	x = (x | x<<6) & 0x0303030303030303
	return (x | x<<3) & 0x1111111111111111
}

// spread8 is pack8's inverse: bits 0…7 of x go to bits 0, 8, …, 56.
// The multiply copies x into every byte, the mask keeps bit k of byte
// k, and adding 0x7F per byte (no byte carries) moves it to bit 7.
func spread8(x uint64) uint64 {
	y := x * every8 & 0x8040201008040201
	return (y + 0x7F7F7F7F7F7F7F7F) >> 7 & every8
}

// transpose8 transposes the 8×8 bit matrix whose row j is byte j of x
// (bit k of byte j is element (j, k)).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// transposeBytes transposes the 8×8 byte matrix whose row j is m[j]
// (byte k of m[j] is element (j, k)) by swapping 4×4, 2×2 and 1×1
// blocks.
func transposeBytes(m *[8]uint64) {
	for j := range 4 {
		a, b := m[j], m[j+4]
		m[j] = a&0x00000000FFFFFFFF | b<<32
		m[j+4] = a>>32 | b&0xFFFFFFFF00000000
	}
	for _, j := range [4]int{0, 1, 4, 5} {
		a, b := m[j], m[j+2]
		m[j] = a&0x0000FFFF0000FFFF | b<<16&0xFFFF0000FFFF0000
		m[j+2] = a>>16&0x0000FFFF0000FFFF | b&0xFFFF0000FFFF0000
	}
	for j := 0; j < 8; j += 2 {
		a, b := m[j], m[j+1]
		m[j] = a&0x00FF00FF00FF00FF | b<<8&0xFF00FF00FF00FF00
		m[j+1] = a>>8&0x00FF00FF00FF00FF | b&0xFF00FF00FF00FF00
	}
}
