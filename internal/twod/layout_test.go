package twod

import (
	"math/rand"
	"slices"
	"testing"

	"twodcache/internal/bitvec"
)

// TestLayoutGatherScatterMatchesPhysColumn checks Layout's interleave
// pair against PhysColumn bit by bit over random rows and deltas:
// gather reads codeword bit b of word w from column PhysColumn(w, b)
// and leaves the bits past CodewordBits zero; scatterXor flips exactly
// word w's columns of the delta's set bits, in every row it is given,
// and leaves the bits past RowBits zero; gathering a scattered delta
// returns the delta, and every other word gathers zero. The degrees
// cover every kernel: the copy (d = 1), the constant-mask kernels
// (2, 4, 8) and the bit loop, both for d that is not a power of two
// (3) and for the powers of two past 8 (16 to 128, up to pcache's
// 1024-byte lines and 128-way tags); 68-bit words leave the last row
// word's chunk partial. gatherRow must agree with gather word by word,
// and interleave must rebuild the row from it.
func TestLayoutGatherScatterMatchesPhysColumn(t *testing.T) {
	bit := func(ws []uint64, i int) bool { return ws[i>>6]>>uint(i&63)&1 != 0 }
	rng := rand.New(rand.NewSource(17))
	// random returns n words with their first bits bits random and the
	// rest zero, as a matrix row or a codeword buffer keeps them.
	random := func(n, bits int) []uint64 {
		ws := make([]uint64, n)
		for i := 0; i < bits; i++ {
			if rng.Intn(2) == 1 {
				ws[i>>6] |= 1 << uint(i&63)
			}
		}
		return ws
	}
	for _, d := range []int{1, 2, 3, 4, 8, 16, 32, 64, 128} {
		for _, nb := range []int{68, 72, 80} {
			l := Layout{Rows: 1, WordsPerRow: d, CodewordBits: nb}
			rowWords, cwWords := bitvec.WordsFor(l.RowBits()), bitvec.WordsFor(nb)
			for trial := 0; trial < 50; trial++ {
				row := random(rowWords, l.RowBits())
				w := rng.Intn(d)

				got := make([]uint64, cwWords)
				for i := range got {
					got[i] = ^uint64(0) // gather must clear it
				}
				l.gather(got, row, w)
				for b := 0; b < cwWords*64; b++ {
					if want := b < nb && bit(row, l.PhysColumn(w, b)); bit(got, b) != want {
						t.Fatalf("d=%d nb=%d: gather word %d bit %d = %v, want %v", d, nb, w, b, !want, want)
					}
				}

				all := make([]uint64, d*cwWords)
				for i := range all {
					all[i] = ^uint64(0) // gatherRow must clear the tails
				}
				l.gatherRow(all, row)
				for k := 0; k < d; k++ {
					l.gather(got, row, k)
					if !slices.Equal(all[k*cwWords:(k+1)*cwWords], got) {
						t.Fatalf("d=%d nb=%d: gatherRow word %d = %x, gather = %x", d, nb, k, all[k*cwWords:(k+1)*cwWords], got)
					}
				}
				rebuilt := make([]uint64, rowWords)
				for i := range rebuilt {
					rebuilt[i] = ^uint64(0) // interleave must overwrite every word
				}
				l.interleave(rebuilt, all)
				if !slices.Equal(rebuilt, row) {
					t.Fatalf("d=%d nb=%d: interleave(gatherRow(row)) = %x, want %x", d, nb, rebuilt, row)
				}

				delta := random(cwWords, nb)
				data, par := slices.Clone(row), slices.Clone(row)
				l.scatterXor(w, delta, data, par)
				for c := 0; c < rowWords*64; c++ {
					want := bit(row, c)
					if c < l.RowBits() {
						if ww, b := l.Locate(c); ww == w && bit(delta, b) {
							want = !want
						}
					}
					if bit(data, c) != want || bit(par, c) != want {
						t.Fatalf("d=%d nb=%d: scatter of word %d left column %d at %v/%v, want %v",
							d, nb, w, c, bit(data, c), bit(par, c), want)
					}
				}

				scattered := make([]uint64, rowWords)
				l.scatterXor(w, delta, scattered)
				for ow := 0; ow < d; ow++ {
					l.gather(got, scattered, ow)
					want := delta
					if ow != w {
						want = make([]uint64, cwWords)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("d=%d nb=%d: word %d gathers %x from word %d's scattered delta %x",
							d, nb, ow, got, w, delta)
					}
				}
			}
		}
	}
}
