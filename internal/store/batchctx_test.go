package store

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"twodcache/internal/pcache"
)

// TestBatchCtxExpiredStampsEveryOp pins the expired-deadline contract
// at the router: a batch whose context is already dead is not served —
// every op, on every shard, carries the context error (errors.Is
// matches it), nothing is read or written, and
// the failed count covers the whole batch.
func TestBatchCtxExpiredStampsEveryOp(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, _ := newSharded(t, shards)
		seed := bytes.Repeat([]byte{0x5A}, 64)
		for line := uint64(0); line < 8; line++ {
			if err := write1(s, line*64, seed); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Stats()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()

		rops := make([]pcache.ReadOp, 8)
		for i := range rops {
			rops[i] = pcache.ReadOp{Addr: uint64(i) * 64, Dst: make([]byte, 64)}
		}
		if failed := s.ReadBatchCtx(ctx, rops); failed != len(rops) {
			t.Fatalf("shards=%d: expired ReadBatchCtx failed=%d, want %d", shards, failed, len(rops))
		}
		for i := range rops {
			if !errors.Is(rops[i].Err, context.Canceled) {
				t.Fatalf("shards=%d: op %d err = %v, want context.Canceled", shards, i, rops[i].Err)
			}
		}

		wops := make([]pcache.WriteOp, 8)
		for i := range wops {
			wops[i] = pcache.WriteOp{Addr: uint64(i) * 64, Data: bytes.Repeat([]byte{0xEE}, 64)}
		}
		if failed := s.WriteBatchCtx(ctx, wops); failed != len(wops) {
			t.Fatalf("shards=%d: expired WriteBatchCtx failed=%d, want %d", shards, failed, len(wops))
		}
		for i := range wops {
			if !errors.Is(wops[i].Err, context.Canceled) {
				t.Fatalf("shards=%d: write op %d err = %v, want context.Canceled", shards, i, wops[i].Err)
			}
		}

		// Nothing was served: the cache counters did not move, and the
		// rejected writes did not land.
		if after := s.Stats(); after.Accesses != before.Accesses {
			t.Fatalf("shards=%d: expired batch touched the cache (%d -> %d accesses)",
				shards, before.Accesses, after.Accesses)
		}
		got, err := read1(s, 0, 64)
		if err != nil || !bytes.Equal(got, seed) {
			t.Fatalf("shards=%d: rejected write landed anyway (%x, %v)", shards, got[:4], err)
		}
	}
}

// TestBatchCtxLiveMatchesPlainBatch proves the ctx paths are the plain
// paths when the deadline is comfortable: same data, same outcomes.
func TestBatchCtxLiveMatchesPlainBatch(t *testing.T) {
	s, _ := newSharded(t, 4)
	ctx := context.Background()
	wops := make([]pcache.WriteOp, 16)
	for i := range wops {
		wops[i] = pcache.WriteOp{Addr: uint64(i) * 64, Data: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	if failed := s.WriteBatchCtx(ctx, wops); failed != 0 {
		t.Fatalf("WriteBatchCtx failed=%d: %v", failed, wops[0].Err)
	}
	rops := make([]pcache.ReadOp, 16)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * 64, Dst: make([]byte, 64)}
	}
	if failed := s.ReadBatchCtx(ctx, rops); failed != 0 {
		t.Fatalf("ReadBatchCtx failed=%d: %v", failed, rops[0].Err)
	}
	for i := range rops {
		if !bytes.Equal(rops[i].Dst, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("op %d read back %x", i, rops[i].Dst[:4])
		}
	}
}

// TestBatchCtxSpanErrorsStillPerOp: ops rejected for geometry (span
// crossing a line) keep their typed error on the ctx path while the
// rest of the batch is served — ctx bounding must not coarsen per-op
// outcomes.
func TestBatchCtxSpanErrorsStillPerOp(t *testing.T) {
	s, _ := newSharded(t, 4)
	if err := write1(s, 64, bytes.Repeat([]byte{0x77}, 64)); err != nil {
		t.Fatal(err)
	}
	ops := []pcache.ReadOp{
		{Addr: 60, Dst: make([]byte, 8)}, // crosses the line boundary
		{Addr: 64, Dst: make([]byte, 64)},
	}
	if failed := s.ReadBatchCtx(context.Background(), ops); failed != 1 {
		t.Fatalf("failed=%d, want 1", failed)
	}
	if ops[0].Err == nil || ops[1].Err != nil {
		t.Fatalf("per-op outcomes: %v / %v", ops[0].Err, ops[1].Err)
	}
	if !bytes.Equal(ops[1].Dst, bytes.Repeat([]byte{0x77}, 64)) {
		t.Fatalf("surviving op read %x", ops[1].Dst[:4])
	}
}
