package netsrv

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

// A single READ/WRITE frame is a batch of one on the server: these
// tests pin that it answers exactly what the equivalent 1-op batch
// frame answers, that deadline-carrying singles are still amortised,
// and that joining batches by deadline never reorders a connection's
// read-after-write.

func readPayload(deadline, addr uint64, n int) []byte {
	p := be64Append(nil, deadline)
	p = be64Append(p, addr)
	return be32Append(p, uint32(n))
}

func writePayload(deadline, addr uint64, data []byte) []byte {
	p := be64Append(nil, deadline)
	p = be64Append(p, addr)
	return append(p, data...)
}

func batchRead1Payload(deadline, addr uint64, n int) []byte {
	p := be64Append(nil, deadline)
	p = be32Append(p, 1)
	p = be64Append(p, addr)
	return be32Append(p, uint32(n))
}

// roundTrip sends one frame on a raw connection and returns the
// response's status and payload. A batch response is unwrapped to its
// single op's status and data, so both frame kinds compare directly.
func roundTrip(t *testing.T, nc net.Conn, op uint8, id uint64, payload []byte) (uint8, []byte) {
	t.Helper()
	if _, err := nc.Write(appendFrame(nil, op, id, payload)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := readFrame(nc, new(frameHdr))
	if err != nil {
		t.Fatal(err)
	}
	if f.op != op || f.id != id {
		t.Fatalf("response op=%d id=%d, want op=%d id=%d", f.op, f.id, op, id)
	}
	if op != opBatchRead {
		return f.payload[0], f.payload[1:]
	}
	if f.payload[0] != stOK || be32(f.payload[1:]) != 1 {
		t.Fatalf("batch outer status %d count %d", f.payload[0], be32(f.payload[1:]))
	}
	b := f.payload[5:]
	return b[0], b[5 : 5+int(be32(b[1:]))]
}

func TestSingleMatchesBatchOfOneOverWire(t *testing.T) {
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
	// The TestDeadlineOverWire plant: a persistent beyond-coverage DUE
	// on line 0, plus a healthy line 1.
	c := st.Shard(0).Cache()
	if err := write1(c, 0, []byte{0x5A}); err != nil {
		t.Fatal(err)
	}
	if err := write1(c, 16*lineBytes, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	healthy := bytes.Repeat([]byte{0x77}, lineBytes)
	if err := write1(c, lineBytes, healthy); err != nil {
		t.Fatal(err)
	}
	da, _ := c.BankArrays(0)
	lay := da.Layout()
	da.FlipBit(0, lay.PhysColumn(0, 0))
	da.FlipBit(32, lay.PhysColumn(0, 8))

	_, addr := startServer(t, st, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	deadline := uint64(30 * time.Millisecond)
	sSt, _ := roundTrip(t, nc, opRead, 1, readPayload(deadline, 0, 1))
	bSt, _ := roundTrip(t, nc, opBatchRead, 2, batchRead1Payload(deadline, 0, 1))
	if sSt != stRecoveryInProgress || bSt != stRecoveryInProgress {
		t.Fatalf("wedged line: single status %d, batch-of-one status %d, want both stRecoveryInProgress", sSt, bSt)
	}

	sSt, sData := roundTrip(t, nc, opRead, 3, readPayload(deadline, lineBytes, lineBytes))
	bSt, bData := roundTrip(t, nc, opBatchRead, 4, batchRead1Payload(deadline, lineBytes, lineBytes))
	if sSt != stOK || bSt != stOK {
		t.Fatalf("healthy line: single status %d, batch-of-one status %d, want stOK", sSt, bSt)
	}
	if !bytes.Equal(sData, healthy) || !bytes.Equal(bData, sData) {
		t.Fatalf("healthy line bytes differ: single %x, batch-of-one %x", sData, bData)
	}
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

// TestDeadlineSinglesAmortised pins that READ frames carrying a
// deadline join the pending batch like deadline-free ones, for the
// traffic the client really sends: 50 concurrent ReadCtx calls, each
// under its own context, so no two frames carry the same deadline
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
// boundaries: a pipelined WRITE then READ of the same line, each under
// a different deadline field (zero included), reads the value just
// written.
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
		buf = appendFrame(buf, opWrite, uint64(2*r+1), writePayload(wd, a, data))
		buf = appendFrame(buf, opRead, uint64(2*r+2), readPayload(rd, a, lineBytes))
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
		if f.payload[0] != stOK {
			t.Fatalf("id %d: status %d", f.id, f.payload[0])
		}
		if f.op != opRead {
			continue
		}
		r := int(f.id/2) - 1
		if want := bytes.Repeat([]byte{byte(r + 1)}, lineBytes); !bytes.Equal(f.payload[1:], want) {
			t.Fatalf("round %d: read %x, want the value just written", r, f.payload[1:5])
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
