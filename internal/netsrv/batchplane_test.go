package netsrv

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

// TestBatchDeadlineOverWire proves a batch frame's deadline field is
// honored end-to-end: with a wedged repair behind one op, the deadline
// kills exactly that op (stDeadline or stRecoveryInProgress inside an
// stOK batch response), its batchmates are still served, the abort is
// counted in net_deadline_aborts_total, and the decoded error carries
// the same errors.Is chain as the local bounded path.
func TestBatchDeadlineOverWire(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour)
	defer stall.Disarm() // before startServer's cleanup flush, pass or fail
	st, err := store.New(store.Config{
		Cache:      pcache.Config{Sets: 32, Ways: 2, LineBytes: lineBytes, Banks: 1},
		Resilience: resilience.Config{RecoveryStall: &stall},
	}, pcache.NewMapBacking(lineBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Persistent beyond-coverage DUE on line 0 (same plant as the
	// single-op deadline test): two dirty lines sharing a vertical group
	// and an EDC8 parity column.
	c := st.Shard(0).Cache()
	if err := write1(c, 0, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, 16*lineBytes, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, lineBytes, bytes.Repeat([]byte{0x77}, lineBytes)); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))

	reg := obs.NewRegistry()
	_, addr := startServer(t, st, Config{Metrics: reg})

	// Raw frame first: no client-side ctx racing the wire deadline, so
	// the response reflects the server's own batch-ctx abort.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	p := be64Append(nil, uint64(30*time.Millisecond))
	p = be32Append(p, 2)
	p = be64Append(p, 0) // the wedged DUE line
	p = be32Append(p, 1)
	p = be64Append(p, lineBytes) // a healthy batchmate
	p = be32Append(p, lineBytes)
	if _, err := nc.Write(appendFrame(nil, opBatchRead, 1, p)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := readFrame(nc, new(frameHdr))
	if err != nil {
		t.Fatal(err)
	}
	if f.payload[0] != stOK {
		t.Fatalf("batch outer status = %d, want stOK", f.payload[0])
	}
	b := f.payload[1:]
	if int(be32(b)) != 2 {
		t.Fatalf("batch response count = %d, want 2", be32(b))
	}
	st0 := b[4]
	if st0 != stRecoveryInProgress && st0 != stDeadline {
		t.Fatalf("wedged op status = %d, want stRecoveryInProgress or stDeadline", st0)
	}
	werr := statusErr(st0, "")
	if !errors.Is(werr, resilience.ErrRecoveryInProgress) && !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("wire err = %v, want bounded-path sentinel in chain", werr)
	}
	off := 4 + 1 + 4 + int(be32(b[5:])) // skip op0 status, len, data
	if got := b[off]; got != stOK {
		t.Fatalf("healthy batchmate status = %d, want stOK", got)
	}
	n1 := int(be32(b[off+1:]))
	if n1 != lineBytes || !bytes.Equal(b[off+5:off+5+n1], bytes.Repeat([]byte{0x77}, lineBytes)) {
		t.Fatalf("healthy batchmate data wrong (%d bytes)", n1)
	}
	if snap := reg.Snapshot(); snap.Counter(metricDeadlineAborts) == 0 {
		t.Fatal("batch deadline abort not counted in net_deadline_aborts_total")
	}

	// Through the Client: the ctx deadline travels in the batch frame.
	// The caller observes either the server's per-op abort or its own
	// expired ctx — a bounded failure either way, never a hang and never
	// silent success on the wedged op.
	cl := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ops := []pcache.ReadOp{
		{Addr: 0, Dst: make([]byte, 1)},
		{Addr: lineBytes, Dst: make([]byte, lineBytes)},
	}
	failed, berr := cl.ReadBatchCtx(ctx, ops)
	switch {
	case berr != nil:
		if !errors.Is(berr, context.DeadlineExceeded) {
			t.Fatalf("transport-level err = %v, want DeadlineExceeded", berr)
		}
	case failed == 0:
		t.Fatal("wedged op silently succeeded under an expiring batch deadline")
	default:
		if !errors.Is(ops[0].Err, resilience.ErrRecoveryInProgress) && !errors.Is(ops[0].Err, context.DeadlineExceeded) {
			t.Fatalf("op 0 err = %v, want bounded-path sentinel", ops[0].Err)
		}
	}
}

// TestOversizedBatchTrimsScratch pins the per-conn memory bound: a
// batch frame far larger than BatchSize must not leave the connection's
// op scratch pinned at its high-water capacity once served.
func TestOversizedBatchTrimsScratch(t *testing.T) {
	const batchSize = 32
	st, _ := newStore(t, 1, resilience.Config{})
	srv, addr := startServer(t, st, Config{BatchSize: batchSize})
	cl := dial(t, addr)

	// Capture the server-side conn while it is alive.
	var cc *conn
	deadline := time.Now().Add(5 * time.Second)
	for cc == nil {
		srv.mu.Lock()
		for c := range srv.conns {
			cc = c
		}
		srv.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("server never registered the connection")
		}
	}

	const huge = 512
	wops := make([]pcache.WriteOp, huge)
	for i := range wops {
		wops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: bytes.Repeat([]byte{byte(i)}, lineBytes)}
	}
	if failed, err := cl.WriteBatchCtx(context.Background(), wops); failed != 0 || err != nil {
		t.Fatalf("huge batch write failed=%d err=%v", failed, err)
	}
	rops := make([]pcache.ReadOp, huge)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * lineBytes, Dst: make([]byte, lineBytes)}
	}
	if failed, err := cl.ReadBatchCtx(context.Background(), rops); failed != 0 || err != nil {
		t.Fatalf("huge batch read failed=%d err=%v", failed, err)
	}

	// Close and wait for the server to retire the conn: removeConn's
	// mutex hand-off makes the reader goroutine's final state visible.
	cl.Close()
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never retired")
		}
		time.Sleep(time.Millisecond)
	}
	if got := cap(cc.reads); got > batchSize {
		t.Fatalf("read scratch pinned at cap %d after oversized batch, want <= %d", got, batchSize)
	}
	if got := cap(cc.writes); got > batchSize {
		t.Fatalf("write scratch pinned at cap %d after oversized batch, want <= %d", got, batchSize)
	}
	if len(cc.arenas) != 0 {
		t.Fatalf("%d arena chunks still held after flush", len(cc.arenas))
	}
	if len(cc.retained) != 0 {
		t.Fatalf("%d retained frames still held after flush", len(cc.retained))
	}
}
