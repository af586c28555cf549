package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/netsrv"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

const lineBytes = 64

var testCacheCfg = pcache.Config{Sets: 16, Ways: 2, LineBytes: lineBytes, Banks: 4}

// replica is one in-process netsrv server that can be killed abruptly
// and restarted on the same address with a fresh (empty) store —
// modelling a process crash that loses everything.
type replica struct {
	t    *testing.T
	addr string

	mu     sync.Mutex
	srv    *netsrv.Server
	l      net.Listener
	served chan error
}

func startReplica(t *testing.T) *replica {
	t.Helper()
	r := &replica{t: t}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = l.Addr().String()
	r.boot(l)
	t.Cleanup(r.kill)
	return r
}

func (r *replica) boot(l net.Listener) {
	r.t.Helper()
	backing := pcache.NewMapBacking(lineBytes)
	st, err := store.New(store.Config{
		Shards: 2, Cache: testCacheCfg, Resilience: resilience.Config{},
	}, backing)
	if err != nil {
		r.t.Fatal(err)
	}
	srv, err := netsrv.NewServer(netsrv.Config{Store: st})
	if err != nil {
		r.t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	r.mu.Lock()
	r.srv, r.l, r.served = srv, l, served
	r.mu.Unlock()
}

// kill shuts the replica down; established client conns die.
func (r *replica) kill() {
	r.mu.Lock()
	srv, served := r.srv, r.served
	r.srv = nil
	r.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-served
}

// restart brings the replica back on the same address with an empty
// store. The port was just freed, but give the kernel a moment.
func (r *replica) restart() {
	r.t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 100; i++ {
		l, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		r.t.Fatalf("re-listen on %s: %v", r.addr, err)
	}
	r.boot(l)
}

// pattern builds a line-sized deterministic payload for addr/version.
func pattern(addr uint64, version byte) []byte {
	b := make([]byte, lineBytes)
	for i := range b {
		b[i] = byte(addr>>3) ^ version ^ byte(i*7)
	}
	return b
}

func newCluster(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterReplicationRoundTrip pins the basic contract: writes fan
// out, reads come back identical from a healthy 3-replica cluster, and
// every replica independently holds the data (proved by reading through
// single-endpoint clients).
func TestClusterReplicationRoundTrip(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t), startReplica(t)}
	addrs := []string{reps[0].addr, reps[1].addr, reps[2].addr}
	c := newCluster(t, Config{Endpoints: addrs, Seed: 1})

	const lines = 32
	for i := uint64(0); i < lines; i++ {
		if err := c.Write(i*lineBytes, pattern(i*lineBytes, 1)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < lines; i++ {
		got, err := c.Read(i*lineBytes, lineBytes)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(i*lineBytes, 1)) {
			t.Fatalf("read %d returned wrong data", i)
		}
	}
	// Every individual replica holds every line.
	for ri, addr := range addrs {
		nc, err := netsrv.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < lines; i++ {
			got, err := nc.Read(i*lineBytes, lineBytes)
			if err != nil || !bytes.Equal(got, pattern(i*lineBytes, 1)) {
				t.Fatalf("replica %d line %d: %v", ri, i, err)
			}
		}
		nc.Close()
		_ = ri
	}
}

// TestClusterKillRestartNoStaleReads is the tentpole invariant test: a
// replica that dies, misses writes, and comes back EMPTY must never
// serve a read until repair has refreshed it — the cluster keeps
// answering with the latest data throughout.
func TestClusterKillRestartNoStaleReads(t *testing.T) {
	reps := []*replica{startReplica(t), startReplica(t), startReplica(t)}
	cfg := Config{
		Endpoints:     []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Seed:          2,
		RedialBackoff: 5 * time.Millisecond,
		// Writes here are idempotent full-line puts; lets the cluster
		// retry through the kill window instead of surfacing ambiguity.
		IdempotentWrites: true,
	}
	c := newCluster(t, cfg)

	const lines = 24
	for i := uint64(0); i < lines; i++ {
		if err := c.Write(i*lineBytes, pattern(i*lineBytes, 1)); err != nil {
			t.Fatalf("v1 write %d: %v", i, err)
		}
	}

	reps[1].kill()

	// Overwrite everything while replica 1 is down: it misses v2.
	for i := uint64(0); i < lines; i++ {
		if err := c.Write(i*lineBytes, pattern(i*lineBytes, 2)); err != nil {
			t.Fatalf("v2 write %d: %v", i, err)
		}
	}

	// Replica 1 comes back with an empty store. Until repair completes,
	// reads must still be v2 every single time.
	reps[1].restart()
	deadline := time.Now().Add(10 * time.Second)
	healed := false
	for !healed {
		for i := uint64(0); i < lines; i++ {
			got, err := c.Read(i*lineBytes, lineBytes)
			if err != nil {
				t.Fatalf("read %d during heal: %v", i, err)
			}
			if !bytes.Equal(got, pattern(i*lineBytes, 2)) {
				t.Fatalf("read %d returned stale/garbage data during heal", i)
			}
		}
		healed = true
		for _, s := range c.Endpoints() {
			if !s.Connected || s.Missed > 0 {
				healed = false
			}
		}
		if !healed && time.Now().After(deadline) {
			t.Fatalf("repair never drained: %v", c.Endpoints())
		}
	}

	// Healed: the restarted replica now independently holds v2.
	nc, err := netsrv.Dial(reps[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for i := uint64(0); i < lines; i++ {
		got, err := nc.Read(i*lineBytes, lineBytes)
		if err != nil || !bytes.Equal(got, pattern(i*lineBytes, 2)) {
			t.Fatalf("restarted replica line %d not repaired: %v", i, err)
		}
	}
}

// fakeConn is an in-memory Conn for policy-level tests: programmable
// latency and error injection per operation.
type fakeConn struct {
	mu        sync.Mutex
	data      map[uint64][]byte
	readDelay time.Duration
	readErr   func(call int) error
	writeErr  func(call int) error
	readCalls int
	writeCall int
}

func newFakeConn() *fakeConn { return &fakeConn{data: map[uint64][]byte{}} }

func (f *fakeConn) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	f.mu.Lock()
	call := f.readCalls
	f.readCalls++
	delay, errf := f.readDelay, f.readErr
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if errf != nil {
		if err := errf(call); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.data[addr]
	if !ok {
		return make([]byte, n), nil
	}
	return append([]byte(nil), d...), nil
}

func (f *fakeConn) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	f.mu.Lock()
	call := f.writeCall
	f.writeCall++
	errf := f.writeErr
	f.mu.Unlock()
	if errf != nil {
		if err := errf(call); err != nil {
			return err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data[addr] = append([]byte(nil), data...)
	return nil
}

// ReadBatchCtx serves each op through the single-op path, so the same
// programmable error/delay hooks drive batch tests.
func (f *fakeConn) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	for i := range ops {
		d, rerr := f.ReadCtx(ctx, ops[i].Addr, len(ops[i].Dst))
		ops[i].Err = rerr
		if rerr != nil {
			failed++
			continue
		}
		copy(ops[i].Dst, d)
	}
	return failed, nil
}

func (f *fakeConn) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	for i := range ops {
		ops[i].Err = f.WriteCtx(ctx, ops[i].Addr, ops[i].Data)
		if ops[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

func (f *fakeConn) FlushCtx(context.Context) error { return nil }
func (f *fakeConn) Epoch(uint64) (uint64, error)   { return 0, nil }
func (f *fakeConn) Close() error                   { return nil }

func (f *fakeConn) writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeCall
}

// fakeDialer hands out pre-built fakes by address.
func fakeDialer(conns map[string]Conn) func(string) (Conn, error) {
	return func(addr string) (Conn, error) {
		c, ok := conns[addr]
		if !ok {
			return nil, fmt.Errorf("no fake for %s", addr)
		}
		return c, nil
	}
}

// TestClusterHedgedReadBeatsSlowReplica pins the hedging policy: with
// one pathologically slow replica, reads finish at fast-replica latency
// because the hedge wins, and the hedge metrics advance. With hedging
// disabled, slow-primary reads pay the full slow latency.
func TestClusterHedgedReadBeatsSlowReplica(t *testing.T) {
	const slow = 300 * time.Millisecond
	mk := func(hedge bool) (time.Duration, *obs.Registry) {
		slowC, fastC := newFakeConn(), newFakeConn()
		slowC.readDelay = slow
		reg := obs.NewRegistry()
		c := newCluster(t, Config{
			Endpoints:      []string{"slow", "fast"},
			Dial:           fakeDialer(map[string]Conn{"slow": slowC, "fast": fastC}),
			DisableHedging: !hedge,
			HedgeMin:       5 * time.Millisecond,
			HedgeMax:       5 * time.Millisecond,
			Metrics:        reg,
			Seed:           3,
		})
		if err := c.Write(0, pattern(0, 1)); err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		for i := 0; i < 6; i++ {
			t0 := time.Now()
			got, err := c.Read(0, lineBytes)
			if err != nil {
				t.Fatalf("hedged read: %v", err)
			}
			if !bytes.Equal(got, pattern(0, 1)) {
				t.Fatal("hedged read returned wrong data")
			}
			if d := time.Since(t0); d > worst {
				worst = d
			}
		}
		return worst, reg
	}

	worstHedged, reg := mk(true)
	if worstHedged >= slow {
		t.Fatalf("worst hedged read %v, want < %v", worstHedged, slow)
	}
	s := reg.Snapshot()
	if s.Counter("cluster_hedges_total") == 0 || s.Counter("cluster_hedge_wins_total") == 0 {
		t.Fatalf("hedge metrics did not advance: hedges=%d wins=%d",
			s.Counter("cluster_hedges_total"), s.Counter("cluster_hedge_wins_total"))
	}

	worstUnhedged, reg2 := mk(false)
	if worstUnhedged < slow {
		t.Fatalf("worst unhedged read %v — the slow replica was never primary; widen the loop", worstUnhedged)
	}
	if got := reg2.Snapshot().Counter("cluster_hedges_total"); got != 0 {
		t.Fatalf("hedging disabled but %d hedges launched", got)
	}
}

// TestClusterRetryTransient pins retry classification: recovery-in-
// progress answers are retried with backoff until they clear, within
// the caller's deadline headroom.
func TestClusterRetryTransient(t *testing.T) {
	fc := newFakeConn()
	fc.readErr = func(call int) error {
		if call < 2 {
			return &netsrv.RemoteError{Status: 2} // stRecoveryInProgress
		}
		return nil
	}
	reg := obs.NewRegistry()
	c := newCluster(t, Config{
		Endpoints: []string{"a"},
		Dial:      fakeDialer(map[string]Conn{"a": fc}),
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Metrics: reg, Seed: 4,
	})
	if err := c.Write(0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0, lineBytes)
	if err != nil {
		t.Fatalf("read through transient recovery: %v", err)
	}
	if !bytes.Equal(got, pattern(0, 1)) {
		t.Fatal("wrong data after retries")
	}
	if reg.Snapshot().Counter("cluster_retries_total") == 0 {
		t.Fatal("no retries recorded")
	}

	// With no deadline headroom the retry loop must bail immediately
	// rather than sleep through the caller's budget.
	fc2 := newFakeConn()
	fc2.readErr = func(int) error { return &netsrv.RemoteError{Status: 2} }
	c2 := newCluster(t, Config{
		Endpoints: []string{"a"},
		Dial:      fakeDialer(map[string]Conn{"a": fc2}),
		RetryBase: 50 * time.Millisecond, RetryMax: 50 * time.Millisecond,
		Seed: 5,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = c2.ReadCtx(ctx, 0, lineBytes)
	if err == nil {
		t.Fatal("read succeeded against an always-recovering replica")
	}
	if d := time.Since(t0); d > 40*time.Millisecond {
		t.Fatalf("retry loop slept %v into a 20ms budget", d)
	}
}

// TestClusterAmbiguousWrite pins the ambiguity rule: when every replica
// fails ambiguously and writes are not idempotent, the cluster must
// not retry — it surfaces ErrAmbiguousWrite after exactly one round.
func TestClusterAmbiguousWrite(t *testing.T) {
	boom := errors.New("mid-flight transport loss")
	fc := newFakeConn()
	fc.writeErr = func(int) error { return boom }
	c := newCluster(t, Config{
		Endpoints: []string{"a"},
		Dial:      fakeDialer(map[string]Conn{"a": fc}),
		Seed:      6,
	})
	err := c.Write(0, pattern(0, 1))
	if !errors.Is(err, ErrAmbiguousWrite) {
		t.Fatalf("err = %v, want ErrAmbiguousWrite", err)
	}
	if n := fc.writes(); n != 1 {
		t.Fatalf("ambiguous write attempted %d times, want exactly 1", n)
	}
}

// TestClusterUnambiguousWriteRetries pins the complement: a definite
// not-applied refusal (draining) is retried, never ambiguous.
func TestClusterUnambiguousWriteRetries(t *testing.T) {
	fc := newFakeConn()
	fc.writeErr = func(call int) error {
		if call < 2 {
			return &netsrv.RemoteError{Status: 6} // stDraining
		}
		return nil
	}
	c := newCluster(t, Config{
		Endpoints: []string{"a"},
		Dial:      fakeDialer(map[string]Conn{"a": fc}),
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Seed: 7,
	})
	if err := c.Write(0, pattern(0, 1)); err != nil {
		t.Fatalf("write through draining window: %v", err)
	}
	if n := fc.writes(); n != 3 {
		t.Fatalf("write attempted %d times, want 3", n)
	}
}

// TestClusterStaleReplicaNeverServesReads pins freshness routing: a
// replica that keeps failing writes holds stale (wrong) data, and no
// read may ever come back with it.
func TestClusterStaleReplicaNeverServesReads(t *testing.T) {
	good, bad := newFakeConn(), newFakeConn()
	bad.writeErr = func(int) error { return &netsrv.RemoteError{Status: 6} } // never applies
	c := newCluster(t, Config{
		Endpoints:      []string{"good", "bad"},
		Dial:           fakeDialer(map[string]Conn{"good": good, "bad": bad}),
		Seed:           8,
		RepairInterval: time.Millisecond,
	})
	// Seed the bad replica with old bytes, then write v2 through the
	// cluster: good applies, bad refuses and goes stale.
	bad.mu.Lock()
	bad.data[0] = pattern(0, 1)
	bad.mu.Unlock()
	if err := c.Write(0, pattern(0, 2)); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < 50; i++ {
		got, err := c.Read(0, lineBytes)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(0, 2)) {
			t.Fatalf("read %d returned stale bytes from the bad replica", i)
		}
	}
}

// TestClusterChaosHammer drives a 3-replica cluster through per-replica
// chaos proxies under -race: concurrent workers, deterministic chaos,
// and the hard assertion that every successful read returns exactly
// the last successfully-written value — transport chaos may slow or
// fail requests but must never corrupt them.
func TestClusterChaosHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos hammer is slow")
	}
	var endpoints []string
	for i := 0; i < 3; i++ {
		r := startReplica(t)
		p, err := fault.NewChaosProxy(fault.ChaosProxyConfig{
			Seed:      int64(100 + i),
			Target:    r.addr,
			DelayProb: 0.05, ResetProb: 0.004, TearProb: 0.004, DropProb: 0.002,
			DelayMin: 100 * time.Microsecond, DelayMax: time.Millisecond,
			DropStall: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		endpoints = append(endpoints, p.Addr().String())
	}
	c := newCluster(t, Config{
		Endpoints:        endpoints,
		Seed:             9,
		IdempotentWrites: true,
		MaxRetries:       8,
		RedialBackoff:    2 * time.Millisecond,
		HedgeMax:         2 * time.Millisecond,
	})

	const (
		workers = 4
		opsEach = 150
		lines   = 16 // per worker
	)
	var wg sync.WaitGroup
	var mismatches, successes int64
	var statMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * lines * lineBytes
			shadow := make(map[uint64][]byte)
			for i := 0; i < opsEach; i++ {
				addr := base + uint64(i%lines)*lineBytes
				if i%3 == 0 {
					v := pattern(addr, byte(i))
					if err := c.Write(addr, v); err != nil {
						// Outcome unknown: this addr leaves the verified set
						// until a later write succeeds.
						delete(shadow, addr)
						continue
					}
					shadow[addr] = v
					continue
				}
				want, known := shadow[addr]
				got, err := c.Read(addr, lineBytes)
				if err != nil {
					continue
				}
				if known {
					statMu.Lock()
					successes++
					if !bytes.Equal(got, want) {
						mismatches++
					}
					statMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d silent corruptions across %d verified reads", mismatches, successes)
	}
	if successes == 0 {
		t.Fatal("chaos killed every read; loosen the probabilities")
	}
	t.Logf("chaos hammer: %d verified reads, 0 mismatches", successes)
}

// TestClusterBatchFreshnessPartition pins the freshness invariant for
// batches: a batch read routes each op only to endpoints fresh for
// that addr, an op no fresh replica can serve fails with ErrNoReplicas
// instead of returning stale bytes, and a batch write's per-replica
// failures land the addrs in that replica's missed set.
func TestClusterBatchFreshnessPartition(t *testing.T) {
	a, b := newFakeConn(), newFakeConn()
	c := newCluster(t, Config{
		Endpoints:      []string{"a", "b"},
		Dial:           fakeDialer(map[string]Conn{"a": a, "b": b}),
		RepairInterval: time.Hour, // keep repair from healing mid-test
		MaxRetries:     -1,
	})

	wops := make([]pcache.WriteOp, 4)
	for i := range wops {
		wops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: bytes.Repeat([]byte{byte(i + 1)}, lineBytes)}
	}
	if failed, err := c.WriteBatchCtx(context.Background(), wops); failed != 0 || err != nil {
		t.Fatalf("batch write failed=%d err=%v (%v)", failed, err, wops[0].Err)
	}
	if a.writes() != 4 || b.writes() != 4 {
		t.Fatalf("write fan-out: a=%d b=%d, want 4/4", a.writes(), b.writes())
	}

	// Poison endpoint a for addr 0: reads for it must route to b.
	c.eps[0].markMissed(0, lineBytes)
	rops := make([]pcache.ReadOp, 4)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * lineBytes, Dst: make([]byte, lineBytes)}
	}
	if failed, err := c.ReadBatchCtx(context.Background(), rops); failed != 0 || err != nil {
		t.Fatalf("batch read failed=%d err=%v (%v)", failed, err, rops[0].Err)
	}
	for i := range rops {
		if !bytes.Equal(rops[i].Dst, bytes.Repeat([]byte{byte(i + 1)}, lineBytes)) {
			t.Fatalf("op %d read back %x", i, rops[i].Dst[:4])
		}
	}

	// Now poison BOTH endpoints for addr 0: the op must fail loudly with
	// ErrNoReplicas while its batchmates are still served.
	c.eps[0].markMissed(0, lineBytes)
	c.eps[1].markMissed(0, lineBytes)
	for i := range rops {
		rops[i] = pcache.ReadOp{Addr: uint64(i) * lineBytes, Dst: make([]byte, lineBytes)}
	}
	failed, err := c.ReadBatchCtx(context.Background(), rops)
	if err != nil || failed != 1 {
		t.Fatalf("poisoned batch read failed=%d err=%v", failed, err)
	}
	if !errors.Is(rops[0].Err, ErrNoReplicas) {
		t.Fatalf("op 0 err = %v, want ErrNoReplicas", rops[0].Err)
	}
	for i := 1; i < len(rops); i++ {
		if rops[i].Err != nil || !bytes.Equal(rops[i].Dst, bytes.Repeat([]byte{byte(i + 1)}, lineBytes)) {
			t.Fatalf("batchmate %d not served: %v %x", i, rops[i].Err, rops[i].Dst[:4])
		}
	}

	// A batch write where one replica fails every op: the write still
	// succeeds (the other replica applied), and the failing replica's
	// missed set holds every addr in the batch.
	b.mu.Lock()
	b.writeErr = func(int) error { return errors.New("disk on fire") }
	b.mu.Unlock()
	for i := range wops {
		wops[i].Err = nil
	}
	if failed, err := c.WriteBatchCtx(context.Background(), wops); failed != 0 || err != nil {
		t.Fatalf("degraded batch write failed=%d err=%v (%v)", failed, err, wops[0].Err)
	}
	c.eps[1].mu.Lock()
	missed := len(c.eps[1].missed)
	c.eps[1].mu.Unlock()
	if missed < len(wops) {
		t.Fatalf("failing replica missed set has %d addrs, want >= %d", missed, len(wops))
	}
}

// TestClusterWriteAmbiguityParity pins that WriteCtx and a 1-op
// WriteBatchCtx classify a transport that dies mid-flight the same way:
// both return ErrAmbiguousWrite (and count it) when writes are not
// idempotent, and the raw transport error when they are. Retries are
// off so each call runs exactly one round.
func TestClusterWriteAmbiguityParity(t *testing.T) {
	dead := fmt.Errorf("%w: %w", netsrv.ErrClosed, io.ErrUnexpectedEOF)
	write := map[string]func(c *Client) error{
		"WriteCtx": func(c *Client) error {
			return c.WriteCtx(context.Background(), 0, pattern(0, 1))
		},
		"WriteBatchCtx": func(c *Client) error {
			ops := []pcache.WriteOp{{Addr: 0, Data: pattern(0, 1)}}
			if _, err := c.WriteBatchCtx(context.Background(), ops); err != nil {
				return err
			}
			return ops[0].Err
		},
	}
	for _, idempotent := range []bool{false, true} {
		for name, w := range write {
			t.Run(fmt.Sprintf("%s/idempotent=%v", name, idempotent), func(t *testing.T) {
				fc := newFakeConn()
				fc.writeErr = func(int) error { return dead }
				reg := obs.NewRegistry()
				c := newCluster(t, Config{
					Endpoints:        []string{"a"},
					Dial:             fakeDialer(map[string]Conn{"a": fc}),
					IdempotentWrites: idempotent,
					MaxRetries:       -1,
					Metrics:          reg,
					Seed:             10,
				})
				err := w(c)
				if !errors.Is(err, netsrv.ErrClosed) {
					t.Fatalf("err = %v, want the transport cause in the chain", err)
				}
				if got := errors.Is(err, ErrAmbiguousWrite); got == idempotent {
					t.Fatalf("err = %v: ambiguous=%v, want %v", err, got, !idempotent)
				}
				want := uint64(1)
				if idempotent {
					want = 0
				}
				if got := reg.Snapshot().Counter("cluster_ambiguous_writes_total"); got != want {
					t.Fatalf("cluster_ambiguous_writes_total = %d, want %d", got, want)
				}
				if n := fc.writes(); n != 1 {
					t.Fatalf("write attempted %d times, want exactly 1", n)
				}
			})
		}
	}
}

// TestStripeIndexSpread pins that line-aligned addresses use the whole
// stripe table: 256 consecutive 64-byte lines must not pile onto a
// handful of stripes, as addr%256 did (4 stripes).
func TestStripeIndexSpread(t *testing.T) {
	for _, base := range []uint64{0, 1 << 20, 12345 * lineBytes} {
		seen := map[int]bool{}
		for i := uint64(0); i < numStripes; i++ {
			s := stripeIndex(base + i*lineBytes)
			if s < 0 || s >= numStripes {
				t.Fatalf("stripeIndex(%#x) = %d out of range", base+i*lineBytes, s)
			}
			seen[s] = true
		}
		if len(seen) < 200 {
			t.Fatalf("base %#x: 256 aligned lines hit %d distinct stripes, want >= 200", base, len(seen))
		}
	}
}
