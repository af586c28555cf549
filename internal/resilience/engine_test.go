package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"twodcache/internal/pcache"
)

func newEngine(t *testing.T, ccfg pcache.Config, ecfg Config) (*Engine, *pcache.MapBacking) {
	t.Helper()
	back := pcache.NewMapBacking(ccfg.LineBytes)
	c, err := pcache.New(ccfg, back)
	if err != nil {
		t.Fatal(err)
	}
	return New(c, ecfg), back
}

// batcher is the batch surface the cache and the engine share.
type batcher interface {
	ReadBatch(ops []pcache.ReadOp) (failed int)
	WriteBatch(ops []pcache.WriteOp) (failed int)
}

// read1 reads n bytes at addr as a batch of one.
func read1(b batcher, addr uint64, n int) ([]byte, error) {
	ops := []pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	b.ReadBatch(ops)
	return ops[0].Dst, ops[0].Err
}

// write1 stores data at addr as a batch of one.
func write1(b batcher, addr uint64, data []byte) error {
	ops := []pcache.WriteOp{{Addr: addr, Data: data}}
	b.WriteBatch(ops)
	return ops[0].Err
}

// plantBeyondCoverage writes and flushes two lines, then plants the
// guaranteed-ambiguous error across their data rows: in a 64-row,
// V=32 array, rows 0 (set 0 way 0) and 32 (set 16 way 0) share a
// vertical group, and codeword bits 0 and 8 share an EDC8 parity
// column, so recovery fails deterministically.
func plantBeyondCoverage(t *testing.T, e *Engine) {
	t.Helper()
	c := e.Cache()
	if err := write1(c, 0, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, 16*64, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))
}

var bigCfg = pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 1}

func due(set, way int) *pcache.UncorrectableError {
	return &pcache.UncorrectableError{Array: pcache.ArrayData, Set: set, Way: way}
}

func TestRungRetry(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	// The damage "vanished" before the retry (a concurrent repair):
	// rung 1 alone must rescue the access.
	if err := e.ladderCtx(context.Background(), due(0, 0), func() error { return nil }); err != nil {
		t.Fatalf("ladder: %v", err)
	}
	r := e.Report()
	if r.DUEs != 1 || r.Retries != 1 || r.RetrySuccesses != 1 {
		t.Fatalf("retry rung counters wrong: %+v", r)
	}
	if r.WordAttempts != 0 || r.FullAttempts != 0 || r.Decommissions != 0 {
		t.Fatalf("retry success escalated anyway: %+v", r)
	}
}

func TestRungWordRecovery(t *testing.T) {
	cfg := bigCfg
	cfg.SECDEDHorizontal = true
	e, _ := newEngine(t, cfg, Config{})
	c := e.Cache()
	if err := write1(c, 0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	da.FlipBit(0, 0)

	// The attempt fails while set 0's line words are dirty: only the
	// word rung (SECDED correction in place) can clear it.
	dirty := func() bool {
		for w := 0; w < 64/8; w++ {
			if _, ok := da.TryReadUint64(0, w); !ok {
				return true
			}
		}
		return false
	}
	err := e.ladderCtx(context.Background(), due(0, 0), func() error {
		if dirty() {
			return due(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	r := e.Report()
	if r.WordAttempts != 1 || r.WordRecoveries != 1 {
		t.Fatalf("word rung counters wrong: %+v", r)
	}
	if r.RetrySuccesses != 0 || r.FullAttempts != 0 || r.Decommissions != 0 {
		t.Fatalf("wrong rung rescued the access: %+v", r)
	}
	if dirty() {
		t.Fatal("word rung did not actually repair the cells")
	}
}

func TestRungFull2D(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{}) // EDC: word rung cannot correct
	c := e.Cache()
	if err := write1(c, 0, []byte{0xCD}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	da.FlipBit(0, 0)

	dirty := func() bool {
		_, ok := da.TryReadUint64(0, 0)
		return !ok
	}
	err := e.ladderCtx(context.Background(), due(0, 0), func() error {
		if dirty() {
			return due(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	r := e.Report()
	if r.WordAttempts != 1 || r.WordRecoveries != 0 {
		t.Fatalf("EDC word rung should attempt and fail: %+v", r)
	}
	if r.FullAttempts != 1 || r.FullRecoveries != 1 {
		t.Fatalf("full-2D rung counters wrong: %+v", r)
	}
	if r.Decommissions != 0 {
		t.Fatalf("recoverable fault degraded the cache: %+v", r)
	}
}

func TestRungDegradeEndToEnd(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	plantBeyondCoverage(t, e)

	// The engine's read must survive the RecoveryFailed path: refetch
	// from backing after decommissioning the broken way.
	got, err := read1(e, 0, 1)
	if err != nil || got[0] != 0x11 {
		t.Fatalf("read through degrade: %v %v", got, err)
	}
	r := e.Report()
	if r.DUEs == 0 || r.Decommissions == 0 {
		t.Fatalf("degrade rung never ran: %+v", r)
	}
	if r.Exhausted != 0 {
		t.Fatalf("ladder exhausted: %+v", r)
	}

	// The partner half of the ambiguous pair degrades the same way.
	got, err = read1(e, 16*64, 1)
	if err != nil || got[0] != 0x22 {
		t.Fatalf("partner set: %v %v", got, err)
	}

	// RecoveryFailed ended in a usable, smaller cache — not an error
	// loop: the whole address space still serves correctly.
	for l := uint64(0); l < 64; l++ {
		if err := write1(e, l*64, []byte{byte(l + 1)}); err != nil {
			t.Fatalf("line %d write: %v", l, err)
		}
	}
	for l := uint64(0); l < 64; l++ {
		got, err := read1(e, l*64, 1)
		if err != nil || got[0] != byte(l+1) {
			t.Fatalf("line %d read: %v %v", l, got, err)
		}
	}
	r = e.Report()
	if r.DisabledWays == 0 || r.CapacityLostPct <= 0 {
		t.Fatalf("no capacity accounted as lost: %+v", r)
	}
}

func TestRungDegradeRemapsToSpare(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{SpareRows: 4})
	plantBeyondCoverage(t, e)

	if got, err := read1(e, 0, 1); err != nil || got[0] != 0x11 {
		t.Fatalf("read: %v %v", got, err)
	}
	if got, err := read1(e, 16*64, 1); err != nil || got[0] != 0x22 {
		t.Fatalf("read: %v %v", got, err)
	}
	r := e.Report()
	if r.Remaps == 0 {
		t.Fatalf("spare budget unused: %+v", r)
	}
	if r.DisabledWays != 0 {
		t.Fatalf("remapped ways still disabled: %+v", r)
	}

	// A second failure of a remapped way means its spare is bad too:
	// it must stay retired this time.
	remapsBefore := e.Report().Remaps
	e.Degrade(0, 0)
	r = e.Report()
	if r.Remaps != remapsBefore {
		t.Fatalf("way remapped twice: %+v", r)
	}
	if r.DisabledWays != 1 {
		t.Fatalf("twice-failed way not retired: %+v", r)
	}
}

func TestRemapBudgetExhausts(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{SpareRows: 2})
	for i := 0; i < 4; i++ {
		e.Degrade(i, 0)
	}
	r := e.Report()
	if r.Remaps != 2 {
		t.Fatalf("remaps = %d, want exactly the spare budget 2", r.Remaps)
	}
	if r.DisabledWays != 2 {
		t.Fatalf("disabled = %d, want the 2 beyond-budget ways", r.DisabledWays)
	}
}

func TestLadderPassesThroughNonDUE(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	if _, err := read1(e, 0, 0); err == nil {
		t.Fatal("zero-length read accepted")
	} else if errors.Is(err, pcache.ErrUncorrectable) {
		t.Fatalf("span error misclassified: %v", err)
	}
	if r := e.Report(); r.DUEs != 0 {
		t.Fatalf("non-DUE error entered the ladder: %+v", r)
	}
}

func TestMTTRAccounting(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(5 * time.Millisecond)
		return now
	}
	e, _ := newEngine(t, bigCfg, Config{Clock: clock})
	if err := e.ladderCtx(context.Background(), due(0, 0), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := e.Report().MTTR; got != 5*time.Millisecond {
		t.Fatalf("MTTR = %v, want 5ms (one clock step per ladder run)", got)
	}
}

func TestDegradeCountsLostDirtyData(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{})
	if err := write1(e, 0, []byte{0xEE}); err != nil { // dirty, unflushed
		t.Fatal(err)
	}
	lost := e.Degrade(0, 0) || e.Degrade(0, 1) // one of the two ways holds it
	if !lost {
		t.Fatal("lost dirty line not reported")
	}
	if r := e.Report(); r.DirtyLinesLost != 1 {
		t.Fatalf("report %+v", r)
	}
}
