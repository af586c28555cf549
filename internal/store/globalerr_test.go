package store

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// TestShardedGlobalisesErrorCoordinates pins the router-boundary error
// rewrite: a fault planted at a known GLOBAL set on shard 1 must
// surface that same global set (and the shard's bank offset and array
// label) in the returned typed error — not the shard-local coordinates
// the engine works in.
func TestShardedGlobalisesErrorCoordinates(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour) // wedge the full-2D rung so the deadline fires
	backing := pcache.NewMapBacking(64)
	s, err := New(Config{
		Shards:     2,
		Cache:      pcache.Config{Sets: 32, Ways: 2, LineBytes: 64, Banks: 1},
		Resilience: resilience.Config{RecoveryStall: &stall},
	}, backing)
	if err != nil {
		t.Fatal(err)
	}

	// Plant a persistent beyond-coverage DUE at shard 1's LOCAL set 0
	// (= global set 32): two dirty lines whose data rows share a
	// vertical group and an EDC8 parity column, so neither in-line
	// recovery nor a backing refetch can satisfy the read.
	c := s.Shard(1).Cache()
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

	// Global line 1 → shard 1, local line 0. The wedged repair plus a
	// short deadline force a *RecoveryInProgressError out of the router.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = readCtx1(ctx, s, 1*64, 1)
	if !errors.Is(err, resilience.ErrRecoveryInProgress) {
		t.Fatalf("err = %v, want ErrRecoveryInProgress in chain", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded still in chain", err)
	}
	var rip *resilience.RecoveryInProgressError
	if !errors.As(err, &rip) {
		t.Fatalf("err = %T, want *RecoveryInProgressError", err)
	}
	if rip.Set != 32 { // local set 0 + 1×32
		t.Fatalf("error set = %d, want globalised 32", rip.Set)
	}
	if rip.Bank != 1 { // local bank 0 + 1×1
		t.Fatalf("error bank = %d, want globalised 1", rip.Bank)
	}
	if rip.Array != "shard1/data" {
		t.Fatalf("error array = %q, want shard1/data", rip.Array)
	}
}

// TestGlobalErrRewrite unit-tests the rewrite itself: both typed errors
// gain shard offsets, sentinel chains survive, unknown coordinates and
// untyped errors pass through.
func TestGlobalErrRewrite(t *testing.T) {
	s, _ := newSharded(t, 4) // testCfg: 16 sets, 4 banks per shard
	ue := fmt.Errorf("wrapped: %w", &pcache.UncorrectableError{Array: pcache.ArrayData, Set: 3, Way: 1})
	got := s.globalErr(2, ue)
	var gue *pcache.UncorrectableError
	if !errors.As(got, &gue) {
		t.Fatalf("rewrite lost the type: %T", got)
	}
	if gue.Array != "shard2/data" || gue.Set != 3+2*16 || gue.Way != 1 {
		t.Fatalf("rewrote to %+v", gue)
	}
	if !errors.Is(got, pcache.ErrUncorrectable) {
		t.Fatal("rewrite broke the ErrUncorrectable chain")
	}

	rip := &resilience.RecoveryInProgressError{
		Bank: 1, Array: pcache.ArrayTags, Set: 5, Way: 0,
		Rung: "full-2d", Elapsed: time.Second, Err: context.DeadlineExceeded,
	}
	got = s.globalErr(3, rip)
	var grip *resilience.RecoveryInProgressError
	if !errors.As(got, &grip) {
		t.Fatalf("rewrite lost the type: %T", got)
	}
	if grip.Bank != 1+3*4 || grip.Set != 5+3*16 || grip.Array != "shard3/tags" {
		t.Fatalf("rewrote to %+v", grip)
	}
	if grip.Rung != "full-2d" || grip.Elapsed != time.Second {
		t.Fatalf("rewrite dropped progress: %+v", grip)
	}
	if !errors.Is(got, resilience.ErrRecoveryInProgress) || !errors.Is(got, context.DeadlineExceeded) {
		t.Fatal("rewrite broke the sentinel/cause chain")
	}

	// Unknown coordinates (-1) and untyped errors pass through.
	got = s.globalErr(1, &pcache.UncorrectableError{Array: pcache.ArrayData, Set: -1, Way: -1})
	errors.As(got, &gue)
	if gue.Set != -1 || gue.Way != -1 {
		t.Fatalf("unknown coordinates rewritten: %+v", gue)
	}
	plain := errors.New("plain")
	if s.globalErr(1, plain) != plain {
		t.Fatal("untyped error not passed through")
	}
	if s.globalErr(1, nil) != nil {
		t.Fatal("nil not passed through")
	}
}
