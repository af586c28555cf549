package netsrv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

const lineBytes = 64

var testCacheCfg = pcache.Config{Sets: 16, Ways: 2, LineBytes: lineBytes, Banks: 4}

// newStore builds an N-shard store over a fresh MapBacking. Scrubbers
// and watchdogs stay stopped: tests that need background goroutines
// start them explicitly.
func newStore(t *testing.T, shards int, rcfg resilience.Config) (*store.Sharded, *pcache.MapBacking) {
	t.Helper()
	backing := pcache.NewMapBacking(lineBytes)
	s, err := store.New(store.Config{
		Shards:     shards,
		Cache:      testCacheCfg,
		Resilience: rcfg,
	}, backing)
	if err != nil {
		t.Fatal(err)
	}
	return s, backing
}

// startServer serves st on a loopback listener and returns the dial
// address. Shutdown runs in t.Cleanup unless the test shut down first.
func startServer(t *testing.T, st store.Store, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Store = st
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("cleanup Shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v after graceful shutdown, want nil", err)
		}
	})
	return srv, l.Addr().String()
}

// read1 and write1 issue one op directly on a store as a batch of one —
// the store's only data path. read1 answers nil data on error, as the
// client does.
func read1(st store.Store, addr uint64, n int) ([]byte, error) {
	ops := []pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	if st.ReadBatch(ops) != 0 {
		return nil, ops[0].Err
	}
	return ops[0].Dst, nil
}

// batchWriter is what write1 needs: a store, or a shard's
// *pcache.Cache for planting state at shard-local addresses.
type batchWriter interface {
	WriteBatch(ops []pcache.WriteOp) (failed int)
}

func write1(st batchWriter, addr uint64, data []byte) error {
	ops := []pcache.WriteOp{{Addr: addr, Data: data}}
	st.WriteBatch(ops)
	return ops[0].Err
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFrameRoundTrip pins the codec: appendFrame and readFrame are
// inverses, and out-of-range lengths are rejected before allocation.
func TestFrameRoundTrip(t *testing.T) {
	payload := writePayload(0, 3*lineBytes, []byte("twelve bytes"))
	buf := appendFrame(nil, opBatchWrite, 0xdeadbeef, payload[:6], payload[6:])
	f, err := readFrame(bytes.NewReader(buf), new(frameHdr))
	if err != nil {
		t.Fatal(err)
	}
	if f.op != opBatchWrite || f.id != 0xdeadbeef || !bytes.Equal(f.payload, payload) {
		t.Fatalf("round trip gave op=%d id=%#x payload=%q", f.op, f.id, f.payload)
	}

	// An empty payload is legal to the codec; payload length is checked
	// per opcode by the server.
	f, err = readFrame(bytes.NewReader(appendFrame(nil, opFlush, 7)), new(frameHdr))
	if err != nil || len(f.payload) != 0 {
		t.Fatalf("empty frame: %v, payload %d bytes", err, len(f.payload))
	}

	// A length below the fixed header or above maxFrame is a protocol
	// error, not an allocation.
	for _, length := range []uint32{0, frameFixed - 1, maxFrame + 1} {
		bad := be32Append(nil, length)
		bad = append(bad, make([]byte, 16)...)
		if _, err := readFrame(bytes.NewReader(bad), new(frameHdr)); err == nil {
			t.Fatalf("length %d accepted", length)
		}
	}
}

// TestStatusTaxonomy pins the error<->status mapping in both
// directions: statusOf classifies store errors, RemoteError unwraps
// back to the identical sentinel, so errors.Is behaves the same for a
// remote caller as for a local one.
func TestStatusTaxonomy(t *testing.T) {
	cases := []struct {
		err      error
		status   uint8
		sentinel error
	}{
		{nil, stOK, nil},
		{fmt.Errorf("x: %w", pcache.ErrUncorrectable), stUncorrectable, pcache.ErrUncorrectable},
		{&pcache.UncorrectableError{Array: "data", Set: 1}, stUncorrectable, pcache.ErrUncorrectable},
		{resilience.ErrRecoveryInProgress, stRecoveryInProgress, resilience.ErrRecoveryInProgress},
		// A RecoveryInProgressError carries the deadline cause in its
		// chain; the specific classification must win over stDeadline.
		{&resilience.RecoveryInProgressError{Err: context.DeadlineExceeded}, stRecoveryInProgress, resilience.ErrRecoveryInProgress},
		{context.DeadlineExceeded, stDeadline, context.DeadlineExceeded},
		{context.Canceled, stCanceled, context.Canceled},
		{errors.New("opaque"), stError, nil},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.status {
			t.Fatalf("statusOf(%v) = %d, want %d", tc.err, got, tc.status)
		}
		back := statusErr(tc.status, "msg")
		if tc.status == stOK {
			if back != nil {
				t.Fatal("statusErr(stOK) != nil")
			}
			continue
		}
		if tc.sentinel != nil && !errors.Is(back, tc.sentinel) {
			t.Fatalf("statusErr(%d) = %v, does not match %v", tc.status, back, tc.sentinel)
		}
	}
	// Protocol-level statuses round-trip to their own sentinels.
	for _, tc := range []struct {
		status   uint8
		sentinel error
	}{{stDraining, ErrDraining}, {stBadRequest, ErrBadRequest}, {stUnsupported, ErrUnsupported}} {
		if err := statusErr(tc.status, ""); !errors.Is(err, tc.sentinel) {
			t.Fatalf("status %d does not unwrap to %v", tc.status, tc.sentinel)
		}
	}
}

// TestDifferentialLoopback is the serving layer's oracle: the same op
// sequence applied through a TCP client and applied directly to an
// identically-configured local store must produce identical read
// results and identical backing contents. Any divergence is a wire
// layer bug — encoding, batching, ordering, or geometry.
func TestDifferentialLoopback(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			remote, remoteBack := newStore(t, shards, resilience.Config{})
			local, localBack := newStore(t, shards, resilience.Config{})
			_, addr := startServer(t, remote, Config{BatchSize: 8})
			cl := dial(t, addr)

			const lines = 96
			rng := rand.New(rand.NewSource(42))
			randLine := func(buf []byte) []byte {
				rng.Read(buf)
				return buf
			}
			for i := 0; i < 600; i++ {
				switch op := rng.Intn(10); {
				case op < 3: // single write, whole line
					a := uint64(rng.Intn(lines)) * lineBytes
					data := randLine(make([]byte, lineBytes))
					rerr := cl.WriteCtx(context.Background(), a, data)
					lerr := write1(local, a, data)
					if (rerr == nil) != (lerr == nil) {
						t.Fatalf("op %d: write err remote=%v local=%v", i, rerr, lerr)
					}
				case op < 6: // single read, random span within a line
					n := 1 + rng.Intn(lineBytes)
					a := uint64(rng.Intn(lines))*lineBytes + uint64(rng.Intn(lineBytes-n+1))
					rdata, rerr := cl.ReadCtx(context.Background(), a, n)
					ldata, lerr := read1(local, a, n)
					if (rerr == nil) != (lerr == nil) {
						t.Fatalf("op %d: read err remote=%v local=%v", i, rerr, lerr)
					}
					if !bytes.Equal(rdata, ldata) {
						t.Fatalf("op %d: read divergence at %#x: remote %x local %x", i, a, rdata, ldata)
					}
				case op < 8: // batch write
					k := 1 + rng.Intn(12)
					rops := make([]pcache.WriteOp, k)
					lops := make([]pcache.WriteOp, k)
					for j := 0; j < k; j++ {
						a := uint64(rng.Intn(lines)) * lineBytes
						data := randLine(make([]byte, lineBytes))
						rops[j] = pcache.WriteOp{Addr: a, Data: data}
						lops[j] = pcache.WriteOp{Addr: a, Data: data}
					}
					rfail, err := cl.WriteBatchCtx(context.Background(), rops)
					if err != nil {
						t.Fatalf("op %d: WriteBatch transport: %v", i, err)
					}
					if lfail := local.WriteBatch(lops); rfail != lfail {
						t.Fatalf("op %d: batch write failed remote=%d local=%d", i, rfail, lfail)
					}
				case op < 9: // batch read
					k := 1 + rng.Intn(12)
					rops := make([]pcache.ReadOp, k)
					lops := make([]pcache.ReadOp, k)
					for j := 0; j < k; j++ {
						a := uint64(rng.Intn(lines)) * lineBytes
						rops[j] = pcache.ReadOp{Addr: a, Dst: make([]byte, lineBytes)}
						lops[j] = pcache.ReadOp{Addr: a, Dst: make([]byte, lineBytes)}
					}
					rfail, err := cl.ReadBatchCtx(context.Background(), rops)
					if err != nil {
						t.Fatalf("op %d: ReadBatch transport: %v", i, err)
					}
					if lfail := local.ReadBatch(lops); rfail != lfail {
						t.Fatalf("op %d: batch read failed remote=%d local=%d", i, rfail, lfail)
					}
					for j := 0; j < k; j++ {
						if !bytes.Equal(rops[j].Dst, lops[j].Dst) {
							t.Fatalf("op %d[%d]: batch read divergence at %#x", i, j, rops[j].Addr)
						}
					}
				default: // flush
					if err := cl.Flush(); err != nil {
						t.Fatalf("op %d: remote flush: %v", i, err)
					}
					if err := local.Flush(); err != nil {
						t.Fatalf("op %d: local flush: %v", i, err)
					}
				}
			}

			// Final flush, then the backings must agree line for line.
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := local.Flush(); err != nil {
				t.Fatal(err)
			}
			for line := 0; line < lines; line++ {
				a := uint64(line) * lineBytes
				if r, l := remoteBack.ReadLine(a), localBack.ReadLine(a); !bytes.Equal(r, l) {
					t.Fatalf("backing divergence at line %d: remote %x local %x", line, r, l)
				}
			}
		})
	}
}

// TestPipelineBatching pins the wire layer's whole reason to exist:
// the ops of pipelined frames are re-grouped into store batch calls. A
// raw connection fires 50 1-op BATCH_READ frames before draining any
// response; the server must answer all 50 correctly while issuing far
// fewer store batch calls than ops. Frames of several ops share the
// pending batch the same way, each still answered on its own.
func TestPipelineBatching(t *testing.T) {
	st, _ := newStore(t, 1, resilience.Config{})
	want := bytes.Repeat([]byte{0xAB}, lineBytes)
	if err := write1(st, 0, want); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, addr := startServer(t, st, Config{Metrics: reg})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))

	const n = 50
	var buf []byte
	for id := uint64(1); id <= n; id++ {
		// No deadline: eligible for accumulation.
		buf = appendFrame(buf, opBatchRead, id, readPayload(0, lineBytes, 0))
	}
	// One write syscall on loopback: the server's reader sees the whole
	// pipeline buffered and accumulates before flushing.
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		f, err := readFrame(nc, new(frameHdr))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if f.op != opBatchRead || seen[f.id] || f.id < 1 || f.id > n {
			t.Fatalf("response %d: op=%d id=%d", i, f.op, f.id)
		}
		seen[f.id] = true
		if sts, data := readResults(t, f.payload); len(sts) != 1 || sts[0] != stOK || !bytes.Equal(data[0], want) {
			t.Fatalf("response id %d: statuses %v", f.id, sts)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter(metricBatchOps); got != n {
		t.Fatalf("net_batch_ops_total = %d, want %d", got, n)
	}
	if got := snap.Counter(metricBatches); got >= n {
		t.Fatalf("net_batches_total = %d: pipelined frames were not amortised", got)
	}

	// Frames of 1, 3 and 8 ops in one socket write, with a malformed
	// BATCH_READ (count 2, one op) in the middle: each well-formed frame
	// gets its own response with its own bytes, the malformed one alone
	// answers stBadRequest, and the well-formed ones share store calls.
	lines := make([][]byte, 8)
	for i := range lines {
		lines[i] = bytes.Repeat([]byte{byte(0x10 + i)}, lineBytes)
		if err := write1(st, uint64(1+i)*lineBytes, lines[i]); err != nil {
			t.Fatal(err)
		}
	}
	frames := map[uint64][]int{101: {3}, 102: {5, 0, 6}, 104: {7, 6, 5, 4, 3, 2, 1, 0}}
	buf = buf[:0]
	for _, id := range []uint64{101, 102, 103, 104} {
		if id == 103 {
			bad := readPayload(0, lineBytes, lineBytes)
			bePut32(bad[8:], 2)
			buf = appendFrame(buf, opBatchRead, id, bad)
			continue
		}
		var addrs []uint64
		for _, li := range frames[id] {
			addrs = append(addrs, uint64(1+li)*lineBytes)
		}
		buf = appendFrame(buf, opBatchRead, id, readPayload(0, lineBytes, addrs...))
	}
	before := reg.Snapshot().Counter(metricBatches)
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f, err := readFrame(nc, new(frameHdr))
		if err != nil {
			t.Fatalf("mixed response %d: %v", i, err)
		}
		lis, ok := frames[f.id]
		if f.op != opBatchRead || (!ok && f.id != 103) {
			t.Fatalf("mixed response %d: op=%d id=%d", i, f.op, f.id)
		}
		delete(frames, f.id)
		if !ok {
			if f.payload[0] != stBadRequest {
				t.Fatalf("malformed frame: status %d, want stBadRequest", f.payload[0])
			}
			continue
		}
		sts, data := readResults(t, f.payload)
		if len(sts) != len(lis) {
			t.Fatalf("id %d: %d results, want %d", f.id, len(sts), len(lis))
		}
		for j, li := range lis {
			if sts[j] != stOK || !bytes.Equal(data[j], lines[li]) {
				t.Fatalf("id %d op %d: status %d, bytes %x, want line %d", f.id, j, sts[j], data[j][:4], 1+li)
			}
		}
	}
	if got := reg.Snapshot().Counter(metricBatches) - before; got >= 3 {
		t.Fatalf("3 pipelined batch frames took %d store calls: they were not amortised", got)
	}

	// Unknown opcodes answer stBadRequest without killing the
	// connection: each rejection is followed by a frame the same
	// connection answers. 1 and 2 are the retired single READ and WRITE,
	// 6 the retired STATS.
	for _, op := range []uint8{1, 2, 6, 200} {
		if _, err := nc.Write(appendFrame(nil, op, 100, readPayload(0, lineBytes, 0))); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(nc, new(frameHdr))
		if err != nil || f.id != 100 || f.payload[0] != stBadRequest {
			t.Fatalf("unknown opcode %d: %v, frame %+v", op, err, f)
		}
	}
}

// TestDeadlineOverWire proves the per-request deadline maps onto the
// store's bounded path: a wedged repair plus a short client deadline
// must surface a RecoveryInProgress failure whose errors.Is chain is
// identical to the local one, and count as a deadline abort.
func TestDeadlineOverWire(t *testing.T) {
	var stall fault.Stall
	stall.Arm(time.Hour)
	defer stall.Disarm() // before startServer's cleanup flush, pass or fail
	// The persistent-DUE plant below needs rows 0 and 32 in one bank:
	// 32 sets × 2 ways over a single bank.
	st, err := store.New(store.Config{
		Cache:      pcache.Config{Sets: 32, Ways: 2, LineBytes: lineBytes, Banks: 1},
		Resilience: resilience.Config{RecoveryStall: &stall},
	}, pcache.NewMapBacking(lineBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Persistent beyond-coverage DUE: two dirty lines whose data rows
	// share a vertical group and an EDC8 parity column, so neither
	// in-line recovery nor a backing refetch can satisfy the read. Line
	// 1 stays healthy in the same stalled bank.
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

	reg := obs.NewRegistry()
	_, addr := startServer(t, st, Config{Metrics: reg})

	// Raw connection first: the frame's deadline field alone (no
	// client-side ctx racing it) must come back as stRecoveryInProgress,
	// which statusErr maps onto the canonical sentinel, while the
	// healthy line answers stOK with its bytes under the same deadline.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	deadline := uint64(30 * time.Millisecond)
	for id, tc := range []struct {
		addr   uint64
		n      int
		status uint8
		want   []byte
	}{
		{0, 1, stRecoveryInProgress, nil},
		{lineBytes, lineBytes, stOK, healthy},
	} {
		if _, err := nc.Write(appendFrame(nil, opBatchRead, uint64(id), readPayload(deadline, tc.n, tc.addr))); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(nc, new(frameHdr))
		if err != nil {
			t.Fatal(err)
		}
		sts, data := readResults(t, f.payload)
		if f.id != uint64(id) || len(sts) != 1 || sts[0] != tc.status || !bytes.Equal(data[0], tc.want) {
			t.Fatalf("line %#x: id %d, statuses %v, bytes %x; want status %d and %x", tc.addr, f.id, sts, data, tc.status, tc.want)
		}
	}
	werr := statusErr(stRecoveryInProgress, "")
	if !errors.Is(werr, resilience.ErrRecoveryInProgress) {
		t.Fatalf("wire err = %v, want ErrRecoveryInProgress in chain", werr)
	}
	if snap := reg.Snapshot(); snap.Counter(metricDeadlineAborts) == 0 {
		t.Fatal("deadline abort not counted")
	}

	// Through the Client the caller may observe either the server's
	// answer or its own expired ctx — both classify as a bounded-path
	// failure, never a hang.
	cl := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, rerr := cl.ReadCtx(ctx, 0, 1)
	if !errors.Is(rerr, context.DeadlineExceeded) && !errors.Is(rerr, resilience.ErrRecoveryInProgress) {
		t.Fatalf("client err = %v, want deadline or recovery-in-progress", rerr)
	}
}

// TestEpochOracle pins the EPOCH opcode: with a hook it answers the
// store's loss epoch, without one it answers ErrUnsupported.
func TestEpochOracle(t *testing.T) {
	st, _ := newStore(t, 2, resilience.Config{})
	// Repair line 3's set, so its epoch is not the 0 every set starts at.
	e, local := st.Locate(3 * lineBytes)
	e.Cache().Repair(local)
	_, addr := startServer(t, st, Config{EpochOf: st.LossEpoch})
	cl := dial(t, addr)
	got, err := cl.Epoch(3 * lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 || got != st.LossEpoch(3*lineBytes) {
		t.Fatalf("Epoch = %d, want 1, the store's %d", got, st.LossEpoch(3*lineBytes))
	}

	_, baddr := newStoreServer(t)
	bcl := dial(t, baddr)
	if _, err := bcl.Epoch(0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Epoch without oracle = %v, want ErrUnsupported", err)
	}
}

// newStoreServer is a tiny helper for tests needing a second, plain
// server (no hooks) in the same test body.
func newStoreServer(t *testing.T) (*Server, string) {
	st, _ := newStore(t, 1, resilience.Config{})
	return startServer(t, st, Config{})
}

// TestMaxConns pins the connection cap: the N+1th concurrent
// connection is closed immediately and counted as refused.
func TestMaxConns(t *testing.T) {
	st, _ := newStore(t, 1, resilience.Config{})
	reg := obs.NewRegistry()
	_, addr := startServer(t, st, Config{MaxConns: 2, Metrics: reg})
	ctx := context.Background()
	c1, c2 := dial(t, addr), dial(t, addr)
	if err := c1.FlushCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.FlushCtx(ctx); err != nil {
		t.Fatal(err)
	}
	c3, err := Dial(addr)
	if err != nil {
		// Dial itself may fail if the refusal races the connect — both
		// outcomes are a refused connection.
		return
	}
	defer c3.Close()
	if err := c3.FlushCtx(ctx); err == nil {
		t.Fatal("third connection served beyond MaxConns=2")
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Counter(metricConnsRefused) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refused connection not counted")
		}
		runtime.Gosched()
	}
}
