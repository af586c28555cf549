package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/pcache"
)

// readCtx1 is a deadline-bounded single read: a batch of one, the
// engine's only bounded data path.
func readCtx1(ctx context.Context, e *Engine, addr uint64, n int) error {
	ops := []pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	e.ReadBatchCtx(ctx, ops)
	return ops[0].Err
}

// plantPersistentDUE dirties two lines and plants the beyond-coverage
// double fault across their data rows (rows 0 and 32 share a vertical
// group, codeword bits 0 and 8 share an EDC8 parity column — see
// plantBeyondCoverage). Both properties matter for driving the REAL
// read path: the lines being dirty stops the cache from satisfying the
// DUE with an in-line backing refetch, and the fault being ambiguous
// stops the array's in-line vertical recovery, so every read of addr 0
// surfaces a persistent DUE that only degradation resolves.
func plantPersistentDUE(t *testing.T, e *Engine) {
	t.Helper()
	c := e.Cache()
	if err := write1(c, 0, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, 16*64, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))
}

func TestReadCtxDeadlineAbortDuringStall(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour) // wedge the full-2D rung
	e, _ := newEngine(t, bigCfg, Config{RecoveryStall: &stall})
	plantPersistentDUE(t, e)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := readCtx1(ctx, e, 0, 1)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline not honoured: read took %v", elapsed)
	}
	if !errors.Is(err, ErrRecoveryInProgress) {
		t.Fatalf("err = %v, want ErrRecoveryInProgress in chain", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	var rip *RecoveryInProgressError
	if !errors.As(err, &rip) {
		t.Fatalf("err = %T, want *RecoveryInProgressError", err)
	}
	if rip.Rung != "full-2d" || rip.Bank != 0 {
		t.Fatalf("progress = %+v, want bank 0 wedged at full-2d", rip)
	}
	r := e.Report()
	if r.DeadlineAborts != 1 {
		t.Fatalf("deadline aborts = %d, want 1", r.DeadlineAborts)
	}
	// The abandoned flight must have been resolved, not leaked.
	e.flightMu.Lock()
	inFlight := len(e.flights)
	e.flightMu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d flights leaked after abort", inFlight)
	}

	// With the stall disarmed, the same engine resolves the fault on the
	// next unbounded access (beyond-coverage damage: via degradation).
	stall.Disarm()
	if _, err := read1(e, 0, 1); err != nil {
		t.Fatalf("post-abort read: %v", err)
	}
}

// TestSingleFlightRungAccounting is the concurrent rung-accounting
// regression (run under -race by tier-1): N goroutines hit the same
// persistent uncorrectable; exactly one logical recovery must run, so
// the rung counters read as ONE escalation plus N-1 coalesced waits —
// not N interleaved escalations double-counting every rung.
func TestSingleFlightRungAccounting(t *testing.T) {
	const clients = 8
	e, _ := newEngine(t, bigCfg, Config{})
	plantPersistentDUE(t, e)

	// Hold the repair leader at the rungs' entry until every other
	// client has coalesced behind it, so the schedule is deterministic.
	var once sync.Once
	e.testHookLeadStart = func(*flight) {
		once.Do(func() {
			deadline := time.Now().Add(10 * time.Second)
			for e.coalesced.Load() < clients-1 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
		})
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = read1(e, 0, 1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
	}

	r := e.Report()
	if r.DUEs != clients {
		t.Fatalf("DUEs = %d, want %d (every client tripped one)", r.DUEs, clients)
	}
	if r.CoalescedWaits != clients-1 {
		t.Fatalf("coalesced = %d, want %d", r.CoalescedWaits, clients-1)
	}
	// ONE logical recovery: one retry, one word attempt, one full-2D
	// attempt (the ambiguous fault defeats all three), one decommission
	// — not eight interleaved escalations.
	if r.Retries != 1 || r.WordAttempts != 1 || r.FullAttempts != 1 {
		t.Fatalf("rung counters double-counted: %+v", r)
	}
	if r.Decommissions != 1 || r.Exhausted != 0 {
		t.Fatalf("degrade accounting wrong: %+v", r)
	}
}

func TestCoalescedWaiterDeadline(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour)
	e, _ := newEngine(t, bigCfg, Config{RecoveryStall: &stall})
	plantPersistentDUE(t, e)

	leaderIn := make(chan *flight, 1)
	var once sync.Once
	e.testHookLeadStart = func(fl *flight) { once.Do(func() { leaderIn <- fl }) }

	leaderErr := make(chan error, 1)
	go func() {
		_, err := read1(e, 0, 1) // unbounded: rides the repair to the end
		leaderErr <- err
	}()
	fl := <-leaderIn

	// A bounded waiter coalesces behind the wedged repair and must give
	// up at its own deadline with the repair's progress attached.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := readCtx1(ctx, e, 0, 1)
	if !errors.Is(err, ErrRecoveryInProgress) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want recovery-in-progress + deadline", err)
	}
	if got := e.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}

	// Release the repair: the unbounded leader completes normally.
	// Disarming affects only future hits, and the leader is wedged in
	// the stall's timer, so force the flight as an expired repair
	// budget would.
	stall.Disarm()
	e.force(fl)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

// TestBreakerTransitionTable drives the per-bank breaker state machine
// through every edge: closed×{success, failure-below-threshold,
// threshold}, open×{admit-before-timeout, admit-after-timeout},
// half-open×{second-probe-shed, probe-failure, probe-successes,
// probe-release}. Each step checks the state and the transitions
// counter, so an extra or missing edge fails where it happens.
func TestBreakerTransitionTable(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	e, _ := newEngine(t, bigCfg, Config{
		Clock: clock,
		Breaker: BreakerConfig{
			FailureThreshold: 3,
			OpenTimeout:      10 * time.Millisecond,
			ProbeSuccesses:   2,
		},
	})
	const bank = 0
	b := e.breakers[bank]
	transitions := uint64(0)
	expectState := func(want string, edge bool) {
		t.Helper()
		if edge {
			transitions++
		}
		if got := e.breakers[bank].State(); got != want {
			t.Fatalf("breaker state = %s, want %s", got, want)
		}
		if got := e.breakerTransitions.Load(); got != transitions {
			t.Fatalf("transitions = %d, want %d (state %s)", got, transitions, want)
		}
	}

	// closed + success stays closed and resets the failure streak.
	if v := b.Admit(); v != BreakerRun {
		t.Fatalf("closed admit = %v, want run", v)
	}
	b.Record(false, false)
	b.Record(false, false)
	b.Record(false, true) // streak broken
	expectState("closed", false)

	// threshold consecutive failures trip it open.
	b.Record(false, false)
	b.Record(false, false)
	expectState("closed", false)
	b.Record(false, false)
	expectState("open", true)
	if g := e.breakersOpen.Load(); g != 1 {
		t.Fatalf("open gauge = %d, want 1", g)
	}

	// open sheds until OpenTimeout elapses...
	now = now.Add(5 * time.Millisecond)
	if v := b.Admit(); v != BreakerShed {
		t.Fatalf("open admit before timeout = %v, want shed", v)
	}
	// ...then admits exactly one half-open probe; a second concurrent
	// admit sheds while the probe is out.
	now = now.Add(5 * time.Millisecond)
	if v := b.Admit(); v != BreakerProbe {
		t.Fatalf("open admit after timeout = %v, want probe", v)
	}
	expectState("half-open", true)
	if v := b.Admit(); v != BreakerShed {
		t.Fatalf("second probe admitted, want shed")
	}

	// probe failure reopens.
	b.Record(true, false)
	expectState("open", true)

	// probe abort (caller deadline) returns the slot without an outcome.
	now = now.Add(10 * time.Millisecond)
	if v := b.Admit(); v != BreakerProbe {
		t.Fatal("no probe after second open timeout")
	}
	b.Release(true)
	if v := b.Admit(); v != BreakerProbe {
		t.Fatal("released probe slot not reusable")
	}
	expectState("half-open", true)

	// ProbeSuccesses consecutive good probes close the breaker.
	b.Record(true, true)
	expectState("half-open", false)
	if v := b.Admit(); v != BreakerProbe {
		t.Fatal("no second probe admitted")
	}
	b.Record(true, true)
	expectState("closed", true)
	if g := e.breakersOpen.Load(); g != 0 {
		t.Fatalf("open gauge = %d, want 0 after close", g)
	}

	if tr := e.Report(); tr.BreakerTrips != 2 {
		t.Fatalf("trips = %d, want 2", tr.BreakerTrips)
	}
}

func TestBreakerDisabled(t *testing.T) {
	e, _ := newEngine(t, bigCfg, Config{Breaker: BreakerConfig{Disabled: true}})
	b := e.breakers[0]
	for i := 0; i < 20; i++ {
		if v := b.Admit(); v != BreakerRun {
			t.Fatalf("disabled breaker verdict = %v, want run", v)
		}
		b.Record(false, false)
	}
	if e.breakers[0].State() != "closed" || e.breakerTrips.Load() != 0 {
		t.Fatal("disabled breaker kept state")
	}
}

// TestBreakerShedsToDegrade drives a real bank to an open breaker: a
// persistent beyond-coverage fault fails the rungs repeatedly, trips
// the breaker, and the next uncorrectable is shed straight to degrade
// without touching the recovery rungs.
func TestBreakerShedsToDegrade(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	e, _ := newEngine(t, bigCfg, Config{
		Clock:   clock,
		Breaker: BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour, ProbeSuccesses: 1},
	})
	// A fault source the rungs can never satisfy.
	broken := func() error { return due(0, 0) }
	for i := 0; i < 2; i++ {
		if err := e.ladderCtx(context.Background(), due(0, 0), broken); err == nil {
			t.Fatal("unsatisfiable ladder returned nil")
		}
	}
	if st := e.breakers[0].State(); st != "open" {
		t.Fatalf("breaker = %s after %d failed repairs", st, 2)
	}
	r := e.Report()
	fullBefore, shedsBefore := r.FullAttempts, r.BreakerSheds

	if err := e.ladderCtx(context.Background(), due(0, 1), broken); err == nil {
		t.Fatal("unsatisfiable ladder returned nil")
	}
	r = e.Report()
	if r.BreakerSheds != shedsBefore+1 {
		t.Fatalf("sheds = %d, want %d", r.BreakerSheds, shedsBefore+1)
	}
	if r.FullAttempts != fullBefore {
		t.Fatalf("shed request still ran full-2D: %d -> %d", fullBefore, r.FullAttempts)
	}
	if r.Decommissions == 0 {
		t.Fatal("shed request did not reach the degrade path")
	}
}

func TestWatchdogForcesStalledRepair(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour)
	e, _ := newEngine(t, bigCfg, Config{RecoveryStall: &stall, RepairBudget: 20 * time.Millisecond})
	plantPersistentDUE(t, e)

	// Unbounded read against a wedged full-2D rung: without a repair
	// budget this hangs for the armed hour; with one, the repair is
	// force-escalated to decommission and the read completes from
	// backing (the dirty line is lost — as accounted data loss, not a
	// hang).
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = read1(e, 0, 1)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("repair budget did not unstick the stalled repair")
	}
	if err != nil {
		t.Fatalf("read after force-escalation: %v", err)
	}
	if stall.Fired() == 0 {
		t.Fatal("stall never engaged: test proved nothing")
	}
	r := e.Report()
	if r.WatchdogFires == 0 {
		t.Fatalf("watchdog fires = 0: %+v", r)
	}
	if r.Decommissions == 0 {
		t.Fatal("force-escalation did not decommission the way")
	}
	e.flightMu.Lock()
	inFlight := len(e.flights)
	e.flightMu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d flights leaked after force-escalation", inFlight)
	}
}

// TestRepairBudgetSparesFinishedRepair pins that a budget belongs to
// one in-flight repair: a DUE the ladder resolves well inside its
// budget must never be forced later, so no fire is counted and no way
// is decommissioned after the budget has run out.
func TestRepairBudgetSparesFinishedRepair(t *testing.T) {
	const budget = 20 * time.Millisecond
	e, _ := newEngine(t, bigCfg, Config{RepairBudget: budget})
	// Rung 1 rescues the access at once (see TestRungRetry).
	if err := e.ladderCtx(context.Background(), due(0, 0), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := e.Report()
	if before.DUEs != 1 || before.RetrySuccesses != 1 {
		t.Fatalf("ladder did not resolve the DUE at rung 1: %+v", before)
	}
	time.Sleep(3 * budget)
	r := e.Report()
	if r.WatchdogFires != 0 {
		t.Fatalf("watchdog fires = %d after the repair finished", r.WatchdogFires)
	}
	if r.Decommissions != before.Decommissions {
		t.Fatalf("decommissions %d -> %d after the repair finished", before.Decommissions, r.Decommissions)
	}
	e.flightMu.Lock()
	inFlight := len(e.flights)
	e.flightMu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d flights left after the repair finished", inFlight)
	}
}
