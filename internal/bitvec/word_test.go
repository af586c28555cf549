package bitvec

import (
	"math/rand"
	"testing"
)

func TestMakeCodewordBasics(t *testing.T) {
	buf := make([]uint64, 3)
	c := MakeCodeword(buf, 130)
	if c.Len() != 130 || len(c.Words()) != 3 {
		t.Fatalf("len=%d words=%d", c.Len(), len(c.Words()))
	}
	c.SetBit(0, true)
	c.SetBit(129, true)
	if !c.Bit(0) || !c.Bit(129) || c.Bit(64) {
		t.Fatal("bit set/get broken")
	}
	if c.PopCount() != 2 {
		t.Fatalf("popcount %d", c.PopCount())
	}
	c.Flip(129)
	if c.Bit(129) || c.PopCount() != 1 {
		t.Fatal("flip broken")
	}
	if c.IsZero() {
		t.Fatal("not zero")
	}
	c.Zero()
	if !c.IsZero() {
		t.Fatal("zero broken")
	}
}

func TestCodewordVectorBridge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 7, 63, 64, 65, 72, 128, 266} {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		c := v.AsCodeword()
		if c.Len() != n || c.PopCount() != v.PopCount() {
			t.Fatalf("n=%d view mismatch", n)
		}
		for i := 0; i < n; i++ {
			if c.Bit(i) != v.Bit(i) {
				t.Fatalf("n=%d bit %d mismatch", n, i)
			}
		}
		// Mutating through the view mutates the vector.
		c.Flip(n - 1)
		if c.Bit(n-1) != v.Bit(n-1) {
			t.Fatal("view does not share storage")
		}
	}
}

func TestCodewordUint64AtStoreBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	for trial := 0; trial < 200; trial++ {
		ref := New(n)
		buf := make([]uint64, WordsFor(n))
		c := MakeCodeword(buf, n)
		for i := 0; i < n; i++ {
			b := rng.Intn(2) == 1
			ref.Set(i, b)
			c.SetBit(i, b)
		}
		off := rng.Intn(n + 1)
		// Uint64At must agree with a bit-by-bit read.
		var want uint64
		for i := 0; i < 64 && off+i < n; i++ {
			if ref.Bit(off + i) {
				want |= 1 << uint(i)
			}
		}
		if got := c.Uint64At(off); got != want {
			t.Fatalf("Uint64At(%d) = %#x want %#x", off, got, want)
		}
		// StoreBits round-trips through bit reads.
		nb := rng.Intn(65)
		if off+nb > n {
			nb = n - off
		}
		x := rng.Uint64()
		c.StoreBits(off, nb, x)
		for i := 0; i < nb; i++ {
			if c.Bit(off+i) != (x&(1<<uint(i)) != 0) {
				t.Fatalf("StoreBits(%d,%d) bit %d wrong", off, nb, i)
			}
		}
		// Bits outside the stored span must be untouched.
		for i := 0; i < n; i++ {
			if i >= off && i < off+nb {
				continue
			}
			if c.Bit(i) != ref.Bit(i) {
				t.Fatalf("StoreBits(%d,%d) clobbered bit %d", off, nb, i)
			}
		}
	}
}

func TestCodewordSliceXor(t *testing.T) {
	buf := make([]uint64, 3)
	c := MakeCodeword(buf, 192)
	c.SetBit(64, true)
	c.SetBit(100, true)
	s := c.Slice(64, 128)
	if s.Len() != 64 || !s.Bit(0) || !s.Bit(36) {
		t.Fatal("slice view wrong")
	}
	s.Flip(0)
	if c.Bit(64) {
		t.Fatal("slice does not share storage")
	}
	var other [1]uint64
	o := MakeCodeword(other[:], 64)
	o.SetBit(36, true)
	s.Xor(o)
	if c.Bit(100) {
		t.Fatal("xor through slice broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned slice must panic")
		}
	}()
	c.Slice(1, 65)
}

func TestAppendUint64AndUint64At(t *testing.T) {
	v := New(0)
	v.AppendUint64(0xABCD, 16)
	v.AppendUint64(0x1, 1)
	v.AppendUint64(^uint64(0), 64)
	if v.Len() != 81 {
		t.Fatalf("len %d", v.Len())
	}
	if got := v.Uint64At(0) & 0xFFFF; got != 0xABCD {
		t.Fatalf("first field %#x", got)
	}
	if !v.Bit(16) {
		t.Fatal("second field")
	}
	if got := v.Uint64At(17); got != ^uint64(0) {
		t.Fatalf("third field %#x", got)
	}
	if got := v.Uint64At(81); got != 0 {
		t.Fatalf("past-end read %#x", got)
	}
}
