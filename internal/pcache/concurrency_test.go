package pcache

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"twodcache/internal/twod"
)

// TestConcurrentTrafficWithInjectionAndScrub hammers the cache from
// four worker goroutines while a fault injector flips bits under the
// bank locks, a scrubber runs full 2D recovery passes, and a flusher
// writes dirty lines back — the whole subsystem racing at once, meant
// to run under -race.
//
// Correctness protocol: workers own disjoint lines (line % workers),
// and with Sets a multiple of workers each set is owned by exactly one
// worker, so only the owner ever repairs a set. The injector flips at
// most one bit per currently-clean word, which the horizontal code is
// guaranteed to detect, so any divergence from the worker's model must
// be announced by a DUE/Repair that advances the set's loss epoch —
// an unannounced mismatch is silent corruption and fails the test.
func TestConcurrentTrafficWithInjectionAndScrub(t *testing.T) {
	const (
		workers = 4
		lines   = 256
		ops     = 1200
	)
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 64, Ways: 2, LineBytes: 64, Banks: 8}, back)

	var stop atomic.Bool
	// seen counts the machine checks surfaced to the workers and the
	// flusher; each one must also be in the cache's counter.
	var seen atomic.Uint64
	var wg, aux sync.WaitGroup

	// Stats coherence regression: before Stats() ordered its loads and
	// clamped, a reader racing the per-bank hit counters could observe
	// Hits > Accesses. Hammer the snapshot while traffic runs.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for !stop.Load() {
			st := c.Stats()
			if st.Hits > st.Accesses {
				t.Errorf("incoherent stats: hits %d > accesses %d", st.Hits, st.Accesses)
				return
			}
			if st.Hits+st.Misses > st.Accesses {
				t.Errorf("incoherent stats: hits %d + misses %d > accesses %d",
					st.Hits, st.Misses, st.Accesses)
				return
			}
		}
	}()

	// Fault injector: single-bit flips into clean words only, under the
	// bank lock so upsets never race a word mid-update.
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			bi := rng.Intn(c.NumBanks())
			c.WithBankLock(bi, func(data, tags *twod.Array) {
				a := data
				if rng.Intn(4) == 0 {
					a = tags
				}
				r := rng.Intn(a.Rows())
				wpr := a.Config().WordsPerRow
				w := rng.Intn(wpr)
				if _, ok := a.TryReadUint64(r, w); ok {
					bit := rng.Intn(a.RowBits() / wpr)
					a.FlipBit(r, a.Layout().PhysColumn(w, bit))
				}
			})
		}
	}()

	// Background scrubber and flusher.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for !stop.Load() {
			c.Scrub()
		}
	}()
	aux.Add(1)
	go func() {
		defer aux.Done()
		for !stop.Load() {
			// A DUE aborts the pass; workers will account for it.
			if err := c.Flush(); errors.Is(err, ErrUncorrectable) {
				seen.Add(1)
			}
		}
	}()

	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			expected := map[uint64]byte{}
			wep := map[uint64]uint64{}
			owned := make([]uint64, 0, lines/workers)
			for l := uint64(id); l < lines; l += workers {
				owned = append(owned, l)
			}
			for op := 0; op < ops; op++ {
				l := owned[rng.Intn(len(owned))]
				addr := l * 64
				set := int(l % 64)
				if rng.Intn(2) == 0 {
					val := byte(rng.Intn(256))
					var err error
					for attempt := 0; attempt < 6; attempt++ {
						if err = write1(c, addr, []byte{val}); err == nil {
							break
						}
						if !errors.Is(err, ErrUncorrectable) {
							t.Errorf("worker %d: write error %v", id, err)
							return
						}
						seen.Add(1)
						c.Repair(addr)
					}
					if err != nil {
						t.Errorf("worker %d: write never succeeded: %v", id, err)
						return
					}
					expected[l] = val
					wep[l] = c.LossEpoch(set)
					continue
				}
				got, err := read1(c, addr, 1)
				if err != nil {
					if !errors.Is(err, ErrUncorrectable) {
						t.Errorf("worker %d: read error %v", id, err)
						return
					}
					seen.Add(1)
					c.Repair(addr)
					got, err = read1(c, addr, 1)
					if err != nil {
						t.Errorf("worker %d: read after repair: %v", id, err)
						return
					}
					// Data may have reverted to backing; resync the model.
					expected[l] = got[0]
					wep[l] = c.LossEpoch(set)
					continue
				}
				if got[0] != expected[l] {
					if c.LossEpoch(set) == wep[l] {
						t.Errorf("worker %d: SILENT corruption line %d: got %d want %d",
							id, l, got[0], expected[l])
						return
					}
					// Accounted loss (repair reverted the set): resync.
					expected[l] = got[0]
					wep[l] = c.LossEpoch(set)
				}
			}
		}(id)
	}

	wg.Wait()
	stop.Store(true)
	aux.Wait()

	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("test exercised nothing: %+v", st)
	}
	if st.Hits+st.Misses > st.Accesses {
		t.Fatalf("final stats incoherent: %+v", st)
	}
	// Every machine check a caller saw was counted.
	if got := seen.Load(); got > st.Uncorrectable {
		t.Fatalf("callers saw %d uncorrectable errors, counter says %d", got, st.Uncorrectable)
	}
}

// TestConcurrentDecommissionUnderTraffic races graceful degradation
// against live traffic: ways are decommissioned and re-enabled while
// readers pound the affected sets. Meant for -race; correctness of the
// served values is covered by the epoch protocol above.
func TestConcurrentDecommissionUnderTraffic(t *testing.T) {
	back := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, Banks: 4}, back)
	for l := uint64(0); l < 16; l++ {
		if err := write1(c, l*64, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 2000; i++ {
				l := uint64(rng.Intn(16))
				got, err := read1(c, l*64, 1)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				// All lines are clean (flushed, never rewritten), so even a
				// decommission mid-stream must serve the right value.
				if got[0] != byte(l) {
					t.Errorf("line %d read %d", l, got[0])
					return
				}
			}
		}(id)
	}
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			set, way := rng.Intn(16), rng.Intn(2)
			c.Decommission(set, way)
			c.Reenable(set, way)
		}
	}()
	wg.Wait()
	stop.Store(true)
	dwg.Wait()
	// Leave the cache whole for the final sanity check.
	for set := 0; set < 16; set++ {
		for way := 0; way < 2; way++ {
			c.Reenable(set, way)
		}
	}
	for l := uint64(0); l < 16; l++ {
		got, err := read1(c, l*64, 1)
		if err != nil || got[0] != byte(l) {
			t.Fatalf("final line %d: %v %v", l, got, err)
		}
	}
}
