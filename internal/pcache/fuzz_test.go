package pcache

import (
	"errors"
	"testing"

	"twodcache/internal/obs"
)

// FuzzCacheVsBacking drives the protected cache with a fuzz-chosen
// interleaving of reads, writes, flushes, and bit flips, checking it
// against a shadow model. The injector flips at most one bit per
// currently-clean word — within the horizontal code's guaranteed
// detection — so the cache may lose data (recovery of an ambiguous
// multi-row pattern legitimately fails) but must never lie: any
// divergence from the shadow must be announced by a DUE whose Repair
// advanced the set's loss epoch. A mismatch with no epoch advance is
// silent corruption and fails the fuzz run.
//
// The geometry (64 data rows over 32 vertical groups) pairs rows in
// each group so fuzz-found flip patterns can genuinely exceed 2D
// coverage and exercise the DUE path, not just clean recovery.
func FuzzCacheVsBacking(f *testing.F) {
	f.Add([]byte{0, 1, 0, 42, 1, 1, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 5, 3, 0, 1, 2, 70, 1, 0, 0, 0, 3})
	f.Add([]byte{0, 2, 3, 9, 3, 0, 2, 0, 8, 3, 0, 34, 0, 9, 1, 2, 3, 9, 2})
	// Recovery-heavy seed: write, then pile flips on the same set before
	// reading it back — forcing the repair path with obs hooks installed.
	f.Add([]byte{
		0, 5, 3, 77, 0,
		3, 1, 2, 0, 4, 3, 1, 2, 1, 5, 3, 1, 3, 0, 6, 3, 1, 3, 1, 7,
		1, 5, 3, 0, 0,
		2, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		const (
			lineBytes = 64
			sets      = 32
			lines     = 128 // 4 lines per set vs 2 ways: evictions happen
		)
		back := NewMapBacking(lineBytes)
		c := MustNew(Config{Sets: sets, Ways: 2, LineBytes: lineBytes, Banks: 1}, back)

		// Every fuzz execution runs with the metrics registered so
		// fuzz-found recovery interleavings also exercise them; the
		// registry must stay coherent throughout.
		reg := obs.NewRegistry()
		c.RegisterMetrics(reg)

		shadow := map[uint64]byte{} // by byte address
		wep := map[uint64]uint64{}  // loss epoch at last shadow update

		repair := func(addr uint64) {
			c.Repair(addr)
		}
		setOf := func(addr uint64) int { return int((addr / lineBytes) % sets) }

		for i := 0; i+4 < len(program); i += 5 {
			op, b1, b2, b3, b4 := program[i], program[i+1], program[i+2], program[i+3], program[i+4]
			switch op % 4 {
			case 0: // write one byte
				line := uint64(b1) % lines
				addr := line*lineBytes + uint64(b2)%lineBytes
				var err error
				for attempt := 0; attempt < 4; attempt++ {
					if err = write1(c, addr, []byte{b3}); err == nil {
						break
					}
					if !errors.Is(err, ErrUncorrectable) {
						t.Fatalf("write error %v", err)
					}
					repair(addr)
				}
				if err != nil {
					t.Fatalf("write never succeeded: %v", err)
				}
				shadow[addr] = b3
				wep[addr] = c.LossEpoch(setOf(addr))
			case 1: // read one byte, check against the shadow
				line := uint64(b1) % lines
				addr := line*lineBytes + uint64(b2)%lineBytes
				got, err := read1(c, addr, 1)
				if err != nil {
					if !errors.Is(err, ErrUncorrectable) {
						t.Fatalf("read error %v", err)
					}
					// Announced DUE: repair reverts the set to backing.
					repair(addr)
					got, err = read1(c, addr, 1)
					if err != nil {
						t.Fatalf("read after repair: %v", err)
					}
					shadow[addr] = got[0]
					wep[addr] = c.LossEpoch(setOf(addr))
					continue
				}
				if got[0] != shadow[addr] {
					if c.LossEpoch(setOf(addr)) == wep[addr] {
						t.Fatalf("SILENT divergence at %#x: got %d want %d (epoch unmoved)",
							addr, got[0], shadow[addr])
					}
					// Accounted loss: the set reverted to backing at some
					// point after this address was last modelled. Resync.
					shadow[addr] = got[0]
					wep[addr] = c.LossEpoch(setOf(addr))
				}
			case 2: // flush
				if err := c.Flush(); err != nil {
					if !errors.Is(err, ErrUncorrectable) {
						t.Fatalf("flush error %v", err)
					}
					var ue *UncorrectableError
					if !errors.As(err, &ue) {
						t.Fatalf("flush DUE not located: %v", err)
					}
					repair(uint64(ue.Set) * lineBytes)
				}
			case 3: // flip one bit in a currently-clean word
				data, tags := c.BankArrays(0)
				a := data
				if b1%4 == 0 {
					a = tags
				}
				r := int(b2) % a.Rows()
				wpr := a.Config().WordsPerRow
				w := int(b3) % wpr
				if _, ok := a.TryReadUint64(r, w); ok {
					bit := int(b4) % (a.RowBits() / wpr)
					a.FlipBit(r, a.Layout().PhysColumn(w, bit))
				}
			}
		}

		// The registry snapshot must stay coherent no matter what the
		// program did: hits can never exceed accesses.
		if s := reg.Snapshot(); s.Counter(MetricHits)+s.Counter(MetricMisses) > s.Counter(MetricAccesses) {
			t.Fatalf("incoherent snapshot: hits %d + misses %d > accesses %d",
				s.Counter(MetricHits), s.Counter(MetricMisses), s.Counter(MetricAccesses))
		}

		// Final sweep: every modelled byte must still be explained.
		for addr, want := range shadow {
			got, err := read1(c, addr, 1)
			if err != nil {
				if !errors.Is(err, ErrUncorrectable) {
					t.Fatalf("final read error %v", err)
				}
				repair(addr)
				continue
			}
			if got[0] != want && c.LossEpoch(setOf(addr)) == wep[addr] {
				t.Fatalf("SILENT divergence at %#x on final sweep: got %d want %d",
					addr, got[0], want)
			}
		}
	})
}
