package netsrv

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

// A single op travels as a 1-op batch frame: these tests pin that
// deadline-carrying frames are still amortised, and that joining
// batches by deadline never reorders a connection's read-after-write.

// readPayload builds a BATCH_READ payload reading n bytes at each addr.
func readPayload(deadline uint64, n int, addrs ...uint64) []byte {
	p := be64Append(nil, deadline)
	p = be32Append(p, uint32(len(addrs)))
	for _, a := range addrs {
		p = be64Append(p, a)
		p = be32Append(p, uint32(n))
	}
	return p
}

// writePayload builds a 1-op BATCH_WRITE payload, the frame WriteCtx
// sends.
func writePayload(deadline, addr uint64, data []byte) []byte {
	p := be64Append(nil, deadline)
	p = be32Append(p, 1)
	p = be64Append(p, addr)
	p = be32Append(p, uint32(len(data)))
	return append(p, data...)
}

// readResults decodes an stOK BATCH_READ response payload into each
// op's status and bytes.
func readResults(t *testing.T, p []byte) ([]uint8, [][]byte) {
	t.Helper()
	if len(p) < 5 || p[0] != stOK {
		t.Fatalf("BATCH_READ response: outer status %d, %d bytes", p[0], len(p))
	}
	count := int(be32(p[1:]))
	sts, data := make([]uint8, count), make([][]byte, count)
	b := p[5:]
	for i := range count {
		n := int(be32(b[1:]))
		sts[i], data[i] = b[0], b[5:5+n]
		b = b[5+n:]
	}
	if len(b) != 0 {
		t.Fatalf("BATCH_READ response: %d trailing bytes", len(b))
	}
	return sts, data
}

// gatedStore holds every bounded read batch until release closes, so a
// client's pipeline piles up on the server behind the first one.
type gatedStore struct {
	store.Store
	release chan struct{}
}

func (g gatedStore) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) int {
	<-g.release
	return g.Store.ReadBatchCtx(ctx, ops)
}

// countingConn counts a client's socket writes: one per request frame.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestDeadlineSinglesAmortised pins that 1-op BATCH_READ frames
// carrying a deadline join the pending batch like deadline-free ones,
// for the traffic the client really sends: 50 concurrent ReadCtx calls,
// each under its own context, so no two frames carry the same deadline
// field. While the first read is held in the store the rest pile up,
// then ride fewer than 50 store calls, and every one is answered
// correctly.
func TestDeadlineSinglesAmortised(t *testing.T) {
	st, _ := newStore(t, 1, resilience.Config{})
	want := bytes.Repeat([]byte{0xCD}, lineBytes)
	if err := write1(st, 0, want); err != nil {
		t.Fatal(err)
	}
	gate := gatedStore{Store: st, release: make(chan struct{})}
	reg := obs.NewRegistry()
	_, addr := startServer(t, gate, Config{Metrics: reg})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	cl := NewClient(cc)
	defer cl.Close()

	const n = 50
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			got, err := cl.ReadCtx(ctx, 0, lineBytes)
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("read %x, want %x", got[:4], want[:4])
			}
			errs <- err
		}()
	}
	for cc.writes.Load() < n {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(metricBatchOps); got != n {
		t.Fatalf("net_batch_ops_total = %d, want %d", got, n)
	}
	if got := snap.Counter(metricBatches); got >= n {
		t.Fatalf("net_batches_total = %d: deadline singles were not amortised", got)
	}
}

// TestDeadlineSwitchKeepsReadAfterWrite pins ordering across deadline
// boundaries: a pipelined 1-op BATCH_WRITE then BATCH_READ of the same
// line, each under a different deadline field (zero included), reads
// the value just written.
func TestDeadlineSwitchKeepsReadAfterWrite(t *testing.T) {
	st, _ := newStore(t, 2, resilience.Config{})
	_, addr := startServer(t, st, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	deadlines := []uint64{0, uint64(5 * time.Second), uint64(7 * time.Second)}
	const rounds = 30
	var buf []byte
	for r := 0; r < rounds; r++ {
		a := uint64(r%3) * lineBytes
		data := bytes.Repeat([]byte{byte(r + 1)}, lineBytes)
		wd, rd := deadlines[r%3], deadlines[(r+1)%3]
		buf = appendFrame(buf, opBatchWrite, uint64(2*r+1), writePayload(wd, a, data))
		buf = appendFrame(buf, opBatchRead, uint64(2*r+2), readPayload(rd, lineBytes, a))
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 2*rounds; i++ {
		f, err := readFrame(nc, new(frameHdr))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.op != opBatchRead {
			if f.payload[0] != stOK || f.payload[5] != stOK {
				t.Fatalf("id %d: write status %d/%d", f.id, f.payload[0], f.payload[5])
			}
			continue
		}
		sts, data := readResults(t, f.payload)
		r := int(f.id/2) - 1
		if want := bytes.Repeat([]byte{byte(r + 1)}, lineBytes); sts[0] != stOK || !bytes.Equal(data[0], want) {
			t.Fatalf("round %d: status %d, read %x, want the value just written", r, sts[0], data[0])
		}
	}
}

// TestJoinKeepsHalfBudget pins the deadline side of the join rule: an
// op joins a pending batch only when the batch's deadline, the earliest
// of its ops', leaves every op at least half of its budget, and
// deadline-free ops never share a batch with bounded ones.
func TestJoinKeepsHalfBudget(t *testing.T) {
	t0 := time.Now()
	var c conn
	c.due, c.half = t0.Add(10*time.Millisecond), t0.Add(5*time.Millisecond)
	cases := []struct {
		name   string
		at     time.Duration
		budget time.Duration
		want   bool
	}{
		{"same budget, later arrival", time.Microsecond, 10 * time.Millisecond, true},
		{"slightly shorter budget", 0, 9 * time.Millisecond, true},
		{"budget under the batch's half point", 0, 4 * time.Millisecond, false},
		{"budget more than twice the batch's", 0, 30 * time.Millisecond, false},
		{"no deadline", 0, 0, false},
	}
	for _, tc := range cases {
		at := t0.Add(tc.at)
		if got := c.shares(dueAt(at, uint64(tc.budget)), at.Add(tc.budget/2)); got != tc.want {
			t.Errorf("%s: shares = %v, want %v", tc.name, got, tc.want)
		}
	}
	var free conn
	if !free.shares(time.Time{}, time.Time{}) {
		t.Error("deadline-free op cannot join a deadline-free batch")
	}
	if free.shares(c.due, c.half) {
		t.Error("bounded op joined a deadline-free batch")
	}
}
