package twod

import (
	"math/rand"
	"slices"
	"testing"

	"twodcache/internal/ecc"
)

// FuzzRowVsWord is the row methods' differential oracle. Two arrays
// take identical writes and flips; every row access runs
// ReadRowUint64/WriteRowUint64 on one and the d-word
// ReadUint64/WriteUint64 loop on the other, stopping at the first
// uncorrectable word. Both must give the same values, statuses and word
// counts, and after every access the same Stats, data plane, parity
// plane and residual flags; the row array's bits past RowBits must stay
// zero. The geometries take pcache's EDC8 or SECDED horizontals at a
// degree for every interleave kernel: the copy (d = 1, 8 B lines), the
// constant-mask kernels (2, 4 and 8, lines of 16 to 64 B) and the bit
// loop (3, as in three-way tags; 16 and 128, lines of 128 and 1024 B).
// The flips are none, one bit, a burst along a row, single bits in
// several rows of one vertical group, or parity-row bits.
func FuzzRowVsWord(f *testing.F) {
	degrees := []int{1, 2, 3, 4, 8, 16, 128}
	for geo := range 2 * len(degrees) {
		for kind := range 5 {
			f.Add(uint8(geo), uint8(kind), int64(geo*5+kind))
		}
	}
	f.Fuzz(func(t *testing.T, geo, kind uint8, seed int64) {
		var h ecc.HorizontalCode = ecc.MustEDC(64, 8)
		if geo&1 != 0 {
			h = ecc.MustSECDED(64)
		}
		d := degrees[int(geo>>1)%len(degrees)]
		cfg := Config{Rows: 16, WordsPerRow: d, Horizontal: h, VerticalGroups: 4}
		rowA, wordA := MustArray(cfg), MustArray(cfg)
		rng := rand.New(rand.NewSource(seed))
		for r := range cfg.Rows {
			for w := range d {
				v := rng.Uint64()
				rowA.WriteUint64(r, w, v)
				wordA.WriteUint64(r, w, v)
			}
		}
		flip := func(r, c int) {
			rowA.FlipBit(r, c)
			wordA.FlipBit(r, c)
		}
		inject := func() {
			bitsPerRow := rowA.RowBits()
			switch kind % 5 {
			case 1:
				flip(rng.Intn(cfg.Rows), rng.Intn(bitsPerRow))
			case 2:
				r, n := rng.Intn(cfg.Rows), 1+rng.Intn(2*d)
				c := rng.Intn(bitsPerRow - n)
				for i := range n {
					flip(r, c+i)
				}
			case 3:
				g := rng.Intn(cfg.VerticalGroups)
				for r := g; r < cfg.Rows; r += cfg.VerticalGroups {
					if rng.Intn(2) == 0 {
						flip(r, rng.Intn(bitsPerRow))
					}
				}
			case 4:
				g, c := rng.Intn(cfg.VerticalGroups), rng.Intn(bitsPerRow)
				rowA.FlipParityBit(g, c)
				wordA.FlipParityBit(g, c)
			}
		}
		vals, wantVals := make([]uint64, d), make([]uint64, d)
		st, wantSt := make([]ReadStatus, d), make([]ReadStatus, d)
		for step := range 24 {
			if step%6 == 0 {
				inject()
			}
			r := rng.Intn(cfg.Rows)
			var n, want int
			if rng.Intn(2) == 0 {
				n = rowA.ReadRowUint64(r, vals, st)
				for w := range d {
					want = w + 1
					wantVals[w], wantSt[w] = wordA.ReadUint64(r, w)
					if wantSt[w] == ReadUncorrectable {
						break
					}
				}
			} else {
				for w := range vals {
					vals[w] = rng.Uint64()
				}
				copy(wantVals, vals)
				n = rowA.WriteRowUint64(r, vals, st)
				for w := range d {
					want = w + 1
					if wantSt[w] = wordA.WriteUint64(r, w, vals[w]); wantSt[w] == ReadUncorrectable {
						break
					}
				}
			}
			if n != want || !slices.Equal(vals[:n], wantVals[:n]) || !slices.Equal(st[:n], wantSt[:n]) {
				t.Fatalf("step %d row %d: row method gave n=%d %x %v, word loop n=%d %x %v",
					step, r, n, vals[:n], st[:n], want, wantVals[:want], wantSt[:want])
			}
			if got, want := rowA.Stats(), wordA.Stats(); got != want {
				t.Fatalf("step %d row %d: Stats %+v, word loop %+v", step, r, got, want)
			}
			if !rowA.data.Equal(wordA.data) || !rowA.vpar.Equal(wordA.vpar) {
				t.Fatalf("step %d row %d: data or parity plane differs from the word loop's", step, r)
			}
			if !slices.Equal(rowA.residual, wordA.residual) {
				t.Fatalf("step %d row %d: residual %v, word loop %v", step, r, rowA.residual, wordA.residual)
			}
			if tail := uint(rowA.RowBits() & 63); tail != 0 {
				last := len(rowA.data.RowWords(0)) - 1
				for i := range cfg.Rows {
					if rowA.data.RowWords(i)[last]>>tail != 0 {
						t.Fatalf("step %d: data row %d has bits past RowBits", step, i)
					}
				}
				for g := range cfg.VerticalGroups {
					if rowA.vpar.RowWords(g)[last]>>tail != 0 {
						t.Fatalf("step %d: parity row %d has bits past RowBits", step, g)
					}
				}
			}
		}
	})
}
