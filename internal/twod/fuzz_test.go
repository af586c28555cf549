package twod

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"twodcache/internal/ecc"
	"twodcache/internal/obs"
)

// soupSink records recovery events so the soup tests can check that
// event emission stays one-per-pass and truthful while recovery is
// hammered with arbitrary error mixtures.
type soupSink struct {
	obs.NopSink
	ends      atomic.Uint64
	successes atomic.Uint64
}

func (s *soupSink) RecoveryEnd(array string, set, way int, success bool, d time.Duration) {
	s.ends.Add(1)
	if success {
		s.successes.Add(1)
	}
}

// TestRecoverNeverPanicsOnRandomSoup throws arbitrary mixtures of data
// and parity-row flips at the array: recovery may legitimately fail
// (the soup usually exceeds coverage), but it must never panic, and
// when the soup happens to stay inside one coverage box a success must
// restore the golden image. Every trial runs with an event sink
// installed, so recovery under soup also exercises the instrumented
// path, and the sink's view and the array's counters must agree with
// the returned reports.
func TestRecoverNeverPanicsOnRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	sink := &soupSink{}
	var wantSuccesses, recoveries uint64
	for trial := 0; trial < 60; trial++ {
		a := MustArray(Config{
			Rows: 64, WordsPerRow: 2,
			Horizontal:     ecc.MustEDC(64, 8),
			VerticalGroups: 16,
		})
		a.SetEventSink(sink, "soup")
		fillRandom(a, rng)
		nData := rng.Intn(40)
		for i := 0; i < nData; i++ {
			a.FlipBit(rng.Intn(a.Rows()), rng.Intn(a.RowBits()))
		}
		nPar := rng.Intn(5)
		for i := 0; i < nPar; i++ {
			a.FlipParityBit(rng.Intn(a.VerticalGroups()), rng.Intn(a.RowBits()))
		}
		rep := a.Recover() // must not panic
		if got := a.Stats().Recoveries; got != 1 {
			t.Fatalf("trial %d: array counted %d recoveries, want 1", trial, got)
		}
		recoveries += a.Stats().Recoveries
		if rep.Success {
			wantSuccesses++
			// A successful recovery leaves every word checking clean and
			// the parity invariant intact.
			for r := 0; r < a.Rows(); r++ {
				for w := 0; w < 2; w++ {
					if a.syndromeAt(r, w) != 0 {
						t.Fatalf("trial %d: success with dirty word (%d,%d)", trial, r, w)
					}
				}
			}
			if !parityConsistent(a) {
				t.Fatalf("trial %d: success with inconsistent parity", trial)
			}
		}
	}
	if got := sink.ends.Load(); got != recoveries {
		t.Fatalf("sink saw %d RecoveryEnd events, arrays counted %d recoveries", got, recoveries)
	}
	if got := sink.successes.Load(); got != wantSuccesses {
		t.Fatalf("sink saw %d successful recoveries, reports said %d", got, wantSuccesses)
	}
}

// TestReadsNeverPanicUnderErrors hammers Read/Write on a continuously
// corrupted array; statuses must be sane and storage must stay usable.
func TestReadsNeverPanicUnderErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := MustArray(Config{
		Rows: 32, WordsPerRow: 2,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 8,
	})
	fillRandom(a, rng)
	for i := 0; i < 3000; i++ {
		switch rng.Intn(4) {
		case 0:
			a.FlipBit(rng.Intn(32), rng.Intn(a.RowBits()))
		case 1:
			a.WriteUint64(rng.Intn(32), rng.Intn(2), randUint64(rng))
		default:
			_, st := a.ReadUint64(rng.Intn(32), rng.Intn(2))
			if st < ReadClean || st > ReadUncorrectable {
				t.Fatalf("bogus status %v", st)
			}
		}
	}
}

// TestVSECDEDNeverPanicsOnRandomSoup mirrors the soup test for the
// vertical-SECDED variant.
func TestVSECDEDNeverPanicsOnRandomSoup(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 40; trial++ {
		a := MustVSECDEDArray(64, 2, ecc.MustEDC(64, 8))
		for r := 0; r < 64; r++ {
			for w := 0; w < 2; w++ {
				a.WriteUint64(r, w, randUint64(rng))
			}
		}
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			a.FlipBit(rng.Intn(64), rng.Intn(a.RowBits()))
		}
		a.Recover() // must not panic
	}
}
