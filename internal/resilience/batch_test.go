package resilience

import (
	"testing"

	"twodcache/internal/pcache"
)

// TestReadBatchLaddersFailedOps: a batch over a planted beyond-coverage
// fault must come back fully served — clean ops straight from the
// batch path, the faulting op re-driven through the escalation ladder.
func TestReadBatchLaddersFailedOps(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	plantBeyondCoverage(t, e)
	// A clean line in another set, plus reads over both planted lines.
	if err := write1(e.Cache(), 5*64, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	ops := []pcache.ReadOp{
		{Addr: 0, Dst: make([]byte, 1)},
		{Addr: 5 * 64, Dst: make([]byte, 1)},
		{Addr: 16 * 64, Dst: make([]byte, 1)},
	}
	if failed := e.ReadBatch(ops); failed != 0 {
		for i, op := range ops {
			t.Logf("op %d: err=%v", i, op.Err)
		}
		t.Fatalf("batch failed %d ops after recovery", failed)
	}
	if ops[0].Dst[0] != 0x11 || ops[1].Dst[0] != 0x77 || ops[2].Dst[0] != 0x22 {
		t.Fatalf("wrong bytes: %x %x %x", ops[0].Dst, ops[1].Dst, ops[2].Dst)
	}
	if r := e.Report(); r.DUEs == 0 {
		t.Fatal("no DUE entered the ladder — the fault was not exercised")
	}
}

// TestWriteBatchLaddersFailedOps mirrors the read case for stores.
func TestWriteBatchLaddersFailedOps(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	plantBeyondCoverage(t, e)
	ops := []pcache.WriteOp{
		{Addr: 0, Data: []byte{0xAA}},
		{Addr: 16 * 64, Data: []byte{0xBB}},
	}
	if failed := e.WriteBatch(ops); failed != 0 {
		for i, op := range ops {
			t.Logf("op %d: err=%v", i, op.Err)
		}
		t.Fatalf("batch failed %d ops after recovery", failed)
	}
	got, err := read1(e, 0, 1)
	if err != nil || got[0] != 0xAA {
		t.Fatalf("readback: %x %v", got, err)
	}
	got, err = read1(e, 16*64, 1)
	if err != nil || got[0] != 0xBB {
		t.Fatalf("readback: %x %v", got, err)
	}
}

// TestLadderRedriveChecksWholeLine: the ladder re-drives a failed op
// as a batch of its own, so every attempt checks the whole line the
// first pass checked. A 1-byte read of word 7 next to beyond-coverage
// damage in word 0 of the same line must not count a bare retry as a
// rescue: the damage is still there, so the ladder has to climb to
// degradation, retire the way and advance the set's loss epoch.
func TestLadderRedriveChecksWholeLine(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	plantBeyondCoverage(t, e)
	epoch := e.Cache().LossEpoch(0)
	got, err := read1(e, 0x38, 1)
	if err != nil || got[0] != 0 {
		t.Fatalf("read of word 7: %x %v", got, err)
	}
	r := e.Report()
	if r.DUEs == 0 {
		t.Fatal("no DUE entered the ladder — the fault was not exercised")
	}
	if r.RetrySuccesses != 0 {
		t.Fatalf("a retry that repaired nothing counted as a rescue: %+v", r)
	}
	if r.Decommissions == 0 {
		t.Fatalf("damaged way never retired: %+v", r)
	}
	if e.Cache().LossEpoch(0) == epoch {
		t.Fatal("loss epoch unmoved after the way was retired")
	}
}

// TestBatchPropagatesSpanErrors: non-DUE failures (bad spans) must not
// enter the ladder and must stay per-op.
func TestBatchPropagatesSpanErrors(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	ops := []pcache.ReadOp{
		{Addr: 60, Dst: make([]byte, 8)}, // crosses a line boundary
		{Addr: 0, Dst: make([]byte, 1)},
	}
	if failed := e.ReadBatch(ops); failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if ops[0].Err == nil || ops[1].Err != nil {
		t.Fatalf("per-op errors wrong: %v / %v", ops[0].Err, ops[1].Err)
	}
	if r := e.Report(); r.DUEs != 0 {
		t.Fatalf("span error entered the ladder: %+v", r)
	}
}
