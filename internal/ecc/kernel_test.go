package ecc

import (
	"math/rand"
	"testing"

	"twodcache/internal/bitvec"
)

// encode returns data's codeword, through EncodeInto.
func encode(c Code, data bitvec.Codeword) bitvec.Codeword {
	cw := bitvec.New(CodewordBits(c))
	c.EncodeInto(cw, data)
	return cw
}

// dataBits returns a copy of cw's first k bits, the data part of the
// uniform layout. A view would carry check bits when k is not a
// multiple of 64.
func dataBits(cw bitvec.Codeword, k int) bitvec.Codeword {
	d := bitvec.New(k)
	d.CopyBits(0, cw, 0, k)
	return d
}

// refSyndrome is the H-matrix definition of a syndrome: the XOR of the
// parity-check columns of cw's set bits.
func refSyndrome(h HorizontalCode, cw bitvec.Codeword) uint64 {
	var syn uint64
	for j := 0; j < cw.Len(); j++ {
		if cw.Bit(j) {
			syn ^= h.ParityColumn(j)
		}
	}
	return syn
}

// kernelCodes is the registry plus EDCn widths that are not a power of
// two or cover less than a whole word, so the group-mask kernel and the
// straddling-word masks are covered too.
func kernelCodes() []Code {
	return append(Registry(), MustEDC(64, 11), MustEDC(64, 24), MustEDC(48, 8))
}

// TestSyndromeWordsMatchParityColumns pins every horizontal code's
// syndrome kernel to its parity-check columns, on encoded words (whose
// reference syndrome must be zero) with 0-3 random flips.
func TestSyndromeWordsMatchParityColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range kernelCodes() {
		h, ok := c.(HorizontalCode)
		if !ok {
			continue
		}
		n := CodewordBits(h)
		for trial := 0; trial < 100; trial++ {
			cw := encode(h, randVec(rng, h.DataBits()))
			if ref := refSyndrome(h, cw); ref != 0 {
				t.Fatalf("%s: reference syndrome %#x of an encoded word", h.Name(), ref)
			}
			for _, p := range rng.Perm(n)[:rng.Intn(4)] {
				cw.Flip(p)
			}
			if got, want := h.SyndromeWords(cw), refSyndrome(h, cw); got != want {
				t.Fatalf("%s: SyndromeWords %#x != reference %#x", h.Name(), got, want)
			}
		}
	}
}

// TestKernelAllocFree verifies the parity/Hsiao kernels perform zero
// heap allocations per op — the contract the twod/pcache hot paths
// build on. (BCH kernels allocate per call and are exempt.)
func TestKernelAllocFree(t *testing.T) {
	for _, c := range []Code{MustEDC(64, 8), MustEDC(64, 16), MustSECDED(64), MustSECDEDSBD(64)} {
		n := CodewordBits(c)
		dataBuf := []uint64{0xDEADBEEFCAFEF00D}
		cwBuf := make([]uint64, bitvec.WordsFor(n))
		data := bitvec.MakeCodeword(dataBuf, 64)
		cw := bitvec.MakeCodeword(cwBuf, n)
		if a := testing.AllocsPerRun(200, func() { c.EncodeInto(cw, data) }); a != 0 {
			t.Errorf("%s: EncodeInto allocates %.1f/op", c.Name(), a)
		}
		c.EncodeInto(cw, data)
		if a := testing.AllocsPerRun(200, func() { c.DecodeInPlace(cw) }); a != 0 {
			t.Errorf("%s: DecodeInPlace (clean) allocates %.1f/op", c.Name(), a)
		}
		h := c.(HorizontalCode)
		if a := testing.AllocsPerRun(200, func() { h.SyndromeWords(cw) }); a != 0 {
			t.Errorf("%s: SyndromeWords allocates %.1f/op", c.Name(), a)
		}
	}
}

// FuzzKernelVsReference drives fuzzed data words and error patterns
// through every code's kernels. A fresh codeword decodes clean; after
// the flips, a horizontal code's syndrome matches its parity-check
// columns, and any pattern within the code's correction capability
// decodes back to the original codeword.
func FuzzKernelVsReference(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0xDEADBEEF), uint64(1)<<63, uint64(3))
	f.Add(^uint64(0), uint64(0x8000000000000001), ^uint64(0))
	// Seeds aimed at non-power-of-two EDC widths: bursts that straddle a
	// group boundary only when n does not divide the word evenly.
	f.Add(uint64(0xA5A5_5A5A_0F0F_F0F0), uint64(0x7FF)<<9, uint64(0))
	f.Add(uint64(0x0123_4567_89AB_CDEF), uint64(0x1F)<<59, uint64(0x1F))
	codes := kernelCodes()
	f.Fuzz(func(t *testing.T, dataBits, errLo, errHi uint64) {
		for _, c := range codes {
			k, n := c.DataBits(), CodewordBits(c)
			data := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(k)), k)
			data.StoreBits(0, min(k, 64), dataBits)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(n)), n)
			c.EncodeInto(cw, data)
			clean := bitvec.MakeCodeword(append([]uint64(nil), cw.Words()...), n)
			if res, nc := c.DecodeInPlace(cw); res != Clean || nc != 0 {
				t.Fatalf("%s: fresh codeword decodes (%v,%d)", c.Name(), res, nc)
			}
			// Error pattern from the fuzzed 128-bit mask, cut to the
			// codeword length.
			flips := 0
			for i := 0; i < n && i < 128; i++ {
				e := errLo
				if i >= 64 {
					e = errHi
				}
				if e&(1<<uint(i%64)) != 0 {
					cw.Flip(i)
					flips++
				}
			}
			if h, ok := c.(HorizontalCode); ok {
				if got, want := h.SyndromeWords(cw), refSyndrome(h, cw); got != want {
					t.Fatalf("%s: SyndromeWords %#x != reference %#x", c.Name(), got, want)
				}
			}
			res, nc := c.DecodeInPlace(cw)
			if flips > c.CorrectCapability() {
				continue
			}
			want := Clean
			if flips > 0 {
				want = Corrected
			}
			if res != want || nc != flips || !cw.Equal(clean) {
				t.Fatalf("%s: %d flips decode (%v,%d), codeword restored %v",
					c.Name(), flips, res, nc, cw.Equal(clean))
			}
		}
	})
}
