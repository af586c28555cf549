package twod

import (
	"testing"

	"twodcache/internal/ecc"
	"twodcache/internal/obs"
)

// TestHotPathAllocFree pins the per-access allocation count of the
// word-kernel data path to zero: fetching a clean word (ReadUint64 and
// TryReadUint64), writing one (WriteUint64), reading and writing a
// clean row (ReadRowUint64, WriteRowUint64), and the bare syndrome
// probe must not touch the heap. This is the contract the pcache hit
// path is built on. Recovery holds it too where it runs routinely: a
// clean Recover (every scrub pass) and a Recover that rebuilds one
// faulty row from its group. Every entry point runs in array-owned
// scratch, so the pin holds under -race too.
func TestHotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		horiz ecc.HorizontalCode
	}{
		{"EDC8", ecc.MustEDC(64, 8)},
		{"EDC16", ecc.MustEDC(64, 16)},
		{"SECDED", ecc.MustSECDED(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := MustArray(Config{
				Rows:           64,
				WordsPerRow:    8,
				Horizontal:     tc.horiz,
				VerticalGroups: 16,
			})
			// The zero-alloc contract must survive an installed (no-op)
			// event sink.
			a.SetEventSink(obs.NopSink{}, "data")
			for w := 0; w < 8; w++ {
				a.WriteUint64(3, w, 0xA5A5_5A5A_DEAD_BEEF+uint64(w))
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, st := a.ReadUint64(3, 5); st != ReadClean {
					t.Fatalf("unexpected status %v", st)
				}
			}); got != 0 {
				t.Errorf("ReadUint64 (clean) allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, ok := a.TryReadUint64(3, 5); !ok {
					t.Fatal("TryReadUint64 missed a clean word")
				}
			}); got != 0 {
				t.Errorf("TryReadUint64 (clean) allocates %.1f/op", got)
			}
			var x uint64
			if got := testing.AllocsPerRun(200, func() {
				x++
				if st := a.WriteUint64(3, 5, x); st != ReadClean {
					t.Fatalf("unexpected status %v", st)
				}
			}); got != 0 {
				t.Errorf("WriteUint64 allocates %.1f/op", got)
			}
			vals, st := make([]uint64, 8), make([]ReadStatus, 8)
			if got := testing.AllocsPerRun(200, func() {
				if n := a.ReadRowUint64(3, vals, st); n != 8 || st[5] != ReadClean || vals[5] != x {
					t.Fatalf("ReadRowUint64: n=%d, word 5 %#x %v; want 8, %#x clean", n, vals[5], st[5], x)
				}
			}); got != 0 {
				t.Errorf("ReadRowUint64 (clean) allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				vals[5] = x
				if n := a.WriteRowUint64(3, vals, st); n != 8 || st[5] != ReadClean {
					t.Fatalf("WriteRowUint64: n=%d, word 5 %v; want 8, clean", n, st[5])
				}
			}); got != 0 {
				t.Errorf("WriteRowUint64 (clean) allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if a.syndromeAt(3, 5) != 0 {
					t.Fatal("clean word has nonzero syndrome")
				}
			}); got != 0 {
				t.Errorf("syndromeAt allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if rep := a.Recover(); rep.Mode != RecoveryNone || !rep.Success {
					t.Fatalf("clean Recover: %+v", rep)
				}
			}); got != 0 {
				t.Errorf("Recover (clean) allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				// A 12-column burst: every word of row 3 takes one or
				// two adjacent-bit errors.
				for col := 100; col < 112; col++ {
					a.FlipBit(3, col)
				}
				if rep := a.Recover(); rep.Mode != RecoveryRow || rep.FaultyWords != 8 || !rep.Success {
					t.Fatalf("one-row Recover: %+v", rep)
				}
			}); got != 0 {
				t.Errorf("Recover (one faulty row) allocates %.1f/op", got)
			}
			if v, st := a.ReadUint64(3, 5); st != ReadClean || v != x {
				t.Fatalf("after recoveries: %#x, %v; want %#x clean", v, st, x)
			}
		})
	}
}

// TestKernelAPIAgreesWithVectorAPI checks that ReadUint64 and
// TryReadUint64 agree on words written with WriteUint64, and that the
// traffic leaves the array consistent.
func TestKernelAPIAgreesWithVectorAPI(t *testing.T) {
	a := MustArray(Config{
		Rows:           32,
		WordsPerRow:    4,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 8,
	})
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, uint64(r)<<32|uint64(w)<<8|0x17)
		}
	}
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < 4; w++ {
			want := uint64(r)<<32 | uint64(w)<<8 | 0x17
			got, st := a.ReadUint64(r, w)
			if st != ReadClean || got != want {
				t.Fatalf("ReadUint64(%d,%d) = %#x, %v; want %#x clean", r, w, got, st, want)
			}
			tv, ok := a.TryReadUint64(r, w)
			if !ok || tv != want {
				t.Fatalf("TryReadUint64(%d,%d) = %#x, %v", r, w, tv, ok)
			}
		}
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("array inconsistent after mixed-API traffic: %+v", rep)
	}
}
