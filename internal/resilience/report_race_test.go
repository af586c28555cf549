package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkReportInvariants asserts the cross-counter invariants Report
// promises. Before Report was rebuilt on a coherent obs snapshot it
// loaded its twelve counters one by one, so a reader racing a ladder
// could see a rung's success count exceed its attempt count.
func checkReportInvariants(t *testing.T, r Report) {
	t.Helper()
	if r.RetrySuccesses > r.Retries {
		t.Fatalf("retry successes %d > retries %d", r.RetrySuccesses, r.Retries)
	}
	if r.WordRecoveries > r.WordAttempts {
		t.Fatalf("word recoveries %d > attempts %d", r.WordRecoveries, r.WordAttempts)
	}
	if r.FullRecoveries > r.FullAttempts {
		t.Fatalf("full recoveries %d > attempts %d", r.FullRecoveries, r.FullAttempts)
	}
	if r.Remaps > r.Decommissions {
		t.Fatalf("remaps %d > decommissions %d", r.Remaps, r.Decommissions)
	}
	if r.Exhausted > r.DUEs {
		t.Fatalf("exhausted %d > DUEs %d", r.Exhausted, r.DUEs)
	}
	if r.Cache.Hits > r.Cache.Accesses {
		t.Fatalf("cache hits %d > accesses %d", r.Cache.Hits, r.Cache.Accesses)
	}
	if r.Cache.Hits+r.Cache.Misses > r.Cache.Accesses {
		t.Fatalf("hits %d + misses %d > accesses %d",
			r.Cache.Hits, r.Cache.Misses, r.Cache.Accesses)
	}
}

// TestReportCoherentUnderConcurrentRepairs hammers Report() while
// worker goroutines drive the escalation ladder through every rung
// (retry, word, full-2D, degrade) concurrently. Run under -race this is
// the regression test for the old non-atomic Report: every snapshot
// must satisfy the rung invariants and never regress between reads.
func TestReportCoherentUnderConcurrentRepairs(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{MaxRetries: 1})
	// Seed some resident lines so traffic counters move too.
	for l := uint64(0); l < 32; l++ {
		if err := write1(e, l*64, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				// fails selects the rung that rescues the access: 0 =>
				// retry, 1 => word recovery, 2 => full 2D, 3 => degrade.
				fails := n % 4
				attempt := func() error {
					if fails > 0 {
						fails--
						return due((w*7+n)%32, n%2)
					}
					return nil
				}
				if err := e.ladderCtx(context.Background(), due((w*7+n)%32, n%2), attempt); err != nil {
					t.Errorf("ladder: %v", err)
					return
				}
				if _, err := read1(e, uint64(n%32)*64, 1); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}

	var prev Report
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		r := e.Report()
		checkReportInvariants(t, r)
		// Monotonic between successive snapshots (rule 3): derived rates
		// must never go negative.
		if r.DUEs < prev.DUEs || r.Retries < prev.Retries ||
			r.Decommissions < prev.Decommissions || r.ScrubPasses < prev.ScrubPasses {
			t.Fatalf("counters regressed: %+v then %+v", prev, r)
		}
		prev = r
		covered := r.DUEs > 0 && r.WordAttempts > 0 && r.FullAttempts > 0 && r.Decommissions > 0
		if (i >= 300 && covered) || time.Now().After(deadline) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	r := e.Report()
	checkReportInvariants(t, r)
	if r.DUEs == 0 || r.WordAttempts == 0 || r.FullAttempts == 0 || r.Decommissions == 0 {
		t.Fatalf("ladder rungs not exercised: %+v", r)
	}
}
