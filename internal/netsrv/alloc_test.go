package netsrv

import (
	"bytes"
	"context"
	"testing"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Alloc-regression pins for the zero-copy batch plane. AllocsPerRun
// counts the process's global mallocs, so each ceiling covers BOTH
// sides of the loopback round trip — the client encoding the request
// and the server parsing, serving, and answering it. A round trip
// allocates only what its caller keeps: ReadCtx's returned slice,
// nothing else; a 1-op ReadBatchCtx into a reused Dst, the frame
// ReadCtx sends, allocates nothing. AllocsPerRun's integer average absorbs the odd pool
// refill.
//
// Skipped under -race: the race runtime allocates per sync operation
// and the pins would measure it, not the code.

func pinAllocs(t *testing.T, what string, ceiling float64, f func()) {
	t.Helper()
	f() // warm the pools and the server's conn scratch
	if got := testing.AllocsPerRun(50, f); got > ceiling {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", what, got, ceiling)
	}
}

func TestLoopbackAllocsSingle(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	st, _ := newStore(t, 1, resilience.Config{})
	_, addr := startServer(t, st, Config{})
	cl := dial(t, addr)

	data := bytes.Repeat([]byte{0xAB}, lineBytes)
	if err := cl.WriteCtx(context.Background(), 0, data); err != nil {
		t.Fatal(err)
	}
	op := []pcache.ReadOp{{Addr: 0, Dst: make([]byte, lineBytes)}}

	pinAllocs(t, "single ReadCtx round trip", 1, func() {
		if _, err := cl.ReadCtx(context.Background(), 0, lineBytes); err != nil {
			t.Fatal(err)
		}
	})
	pinAllocs(t, "1-op ReadBatchCtx round trip", 0, func() {
		if failed, err := cl.ReadBatchCtx(context.Background(), op); failed != 0 || err != nil {
			t.Fatalf("failed=%d err=%v", failed, err)
		}
	})
	pinAllocs(t, "single write round trip", 0, func() {
		if err := cl.WriteCtx(context.Background(), 0, data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLoopbackAllocsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	st, _ := newStore(t, 1, resilience.Config{})
	_, addr := startServer(t, st, Config{})
	cl := dial(t, addr)

	const nOps = 32
	wops := make([]pcache.WriteOp, nOps)
	for i := range wops {
		wops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: bytes.Repeat([]byte{byte(i)}, lineBytes)}
	}
	rops := make([]pcache.ReadOp, nOps)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * lineBytes, Dst: make([]byte, lineBytes)}
	}

	// Whole-batch ceilings (not per op): before pooling, a 32-op read
	// round trip cost ~50 allocs and a write ~18.
	pinAllocs(t, "32-op batch write round trip", 0, func() {
		if failed, err := cl.WriteBatchCtx(context.Background(), wops); failed != 0 || err != nil {
			t.Fatalf("failed=%d err=%v", failed, err)
		}
	})
	pinAllocs(t, "32-op batch read round trip", 0, func() {
		if failed, err := cl.ReadBatchCtx(context.Background(), rops); failed != 0 || err != nil {
			t.Fatalf("failed=%d err=%v", failed, err)
		}
	})
}
