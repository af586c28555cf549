package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"twodcache/internal/netsrv"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// scriptConn is a fake replica whose faults are scripted per addr: the
// k-th read (write) of an addr on this replica gets readErr(addr, k)
// (writeErr). Keying faults by addr rather than by call order lets every
// send path meet the same faults for the same op. A transport-dead
// error kills a whole batch frame, as a dying connection would.
type scriptConn struct {
	mu       sync.Mutex
	data     map[uint64][]byte
	reads    map[uint64]int
	writes   map[uint64]int
	delay    time.Duration // every read call takes this long
	readErr  func(addr uint64, k int) error
	writeErr func(addr uint64, k int) error
}

func newScriptConn() *scriptConn {
	return &scriptConn{data: map[uint64][]byte{}, reads: map[uint64]int{}, writes: map[uint64]int{}}
}

func (s *scriptConn) wait(ctx context.Context) error {
	if s.delay == 0 {
		return nil
	}
	select {
	case <-time.After(s.delay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *scriptConn) readLocked(addr uint64, dst []byte) error {
	k := s.reads[addr]
	s.reads[addr]++
	if s.readErr != nil {
		if err := s.readErr(addr, k); err != nil {
			return err
		}
	}
	clear(dst)
	copy(dst, s.data[addr])
	return nil
}

func (s *scriptConn) writeLocked(addr uint64, data []byte) error {
	k := s.writes[addr]
	s.writes[addr]++
	if s.writeErr != nil {
		if err := s.writeErr(addr, k); err != nil {
			return err
		}
	}
	s.data[addr] = append([]byte(nil), data...)
	return nil
}

func (s *scriptConn) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	if err := s.wait(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, n)
	if err := s.readLocked(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *scriptConn) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(addr, data)
}

func (s *scriptConn) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	if err := s.wait(ctx); err != nil {
		return len(ops), err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ops {
		if ops[i].Err = s.readLocked(ops[i].Addr, ops[i].Dst); ops[i].Err != nil {
			if isTransportDead(ops[i].Err) {
				return len(ops), ops[i].Err
			}
			failed++
		}
	}
	return failed, nil
}

func (s *scriptConn) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dead error
	for i := range ops {
		if ops[i].Err = s.writeLocked(ops[i].Addr, ops[i].Data); ops[i].Err != nil {
			if isTransportDead(ops[i].Err) {
				dead = ops[i].Err
			}
			failed++
		}
	}
	if dead != nil {
		return len(ops), dead
	}
	return failed, nil
}

func (s *scriptConn) FlushCtx(context.Context) error { return nil }
func (s *scriptConn) Epoch(uint64) (uint64, error)   { return 0, nil }
func (s *scriptConn) Close() error                   { return nil }

// firstFails scripts err for the first access of every addr.
func firstFails(err error) func(uint64, int) error {
	return func(_ uint64, k int) error {
		if k == 0 {
			return err
		}
		return nil
	}
}

// errClass is the error taxonomy a caller can act on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrAmbiguousWrite):
		return "ambiguous"
	case errors.Is(err, ErrNoReplicas):
		return "no-replicas"
	case errors.Is(err, resilience.ErrRecoveryInProgress):
		return "recovering"
	case errors.Is(err, netsrv.ErrDraining):
		return "draining"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case isTransportDead(err):
		return "transport"
	}
	return "other: " + err.Error()
}

// block is one step of an op stream: a run of same-kind ops (one batch
// on the 8-op path), or an action on the cluster between runs.
type block struct {
	write bool
	addrs []uint64
	vers  []byte
	do    func(c *Client)
}

// genBlocks draws n runs of 1-8 ops over the first lines line addrs.
// Write runs may repeat an addr.
func genBlocks(rng *rand.Rand, n, lines int, kinds func() bool) []block {
	var out []block
	ver := byte(0)
	for b := 0; b < n; b++ {
		blk := block{write: kinds()}
		for k := 1 + rng.Intn(8); k > 0; k-- {
			ver++
			blk.addrs = append(blk.addrs, uint64(rng.Intn(lines))*lineBytes)
			blk.vers = append(blk.vers, ver)
		}
		out = append(out, blk)
	}
	return out
}

// outcome is what the caller saw for one op.
type outcome struct {
	class string
	data  []byte
}

// runStream sends the stream through one path: "single" (ReadCtx and
// WriteCtx), "batch1" (1-op batches) or "batch8" (each run one batch).
func runStream(t *testing.T, c *Client, path string, stream []block) []outcome {
	t.Helper()
	ctx := context.Background()
	var out []outcome
	for _, blk := range stream {
		if blk.do != nil {
			blk.do(c)
			continue
		}
		chunk := 1
		if path == "batch8" {
			chunk = len(blk.addrs)
		}
		for from := 0; from < len(blk.addrs); from += chunk {
			addrs, vers := blk.addrs[from:from+chunk], blk.vers[from:from+chunk]
			switch {
			case path == "single" && blk.write:
				err := c.WriteCtx(ctx, addrs[0], pattern(addrs[0], vers[0]))
				out = append(out, outcome{class: errClass(err)})
			case path == "single":
				data, err := c.ReadCtx(ctx, addrs[0], lineBytes)
				out = append(out, outcome{class: errClass(err), data: data})
			case blk.write:
				ops := make([]pcache.WriteOp, len(addrs))
				for i := range ops {
					ops[i] = pcache.WriteOp{Addr: addrs[i], Data: pattern(addrs[i], vers[i])}
				}
				if _, err := c.WriteBatchCtx(ctx, ops); err != nil {
					t.Fatalf("%s: call-level batch write error %v", path, err)
				}
				for i := range ops {
					out = append(out, outcome{class: errClass(ops[i].Err)})
				}
			default:
				ops := make([]pcache.ReadOp, len(addrs))
				for i := range ops {
					ops[i] = pcache.ReadOp{Addr: addrs[i], Dst: make([]byte, lineBytes)}
				}
				if _, err := c.ReadBatchCtx(ctx, ops); err != nil {
					t.Fatalf("%s: call-level batch read error %v", path, err)
				}
				for i := range ops {
					o := outcome{class: errClass(ops[i].Err)}
					if ops[i].Err == nil {
						o.data = ops[i].Dst
					}
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// TestClusterPathEquivalence runs one seeded op stream per fault through
// ReadCtx/WriteCtx, 1-op batches and 8-op batches over scripted fake
// replicas, and requires every op to come back with identical bytes and
// an identical error class whichever path sent it. Under -race it also
// proves that hedged attempts never share a caller's Dst.
func TestClusterPathEquivalence(t *testing.T) {
	recovering := &netsrv.RemoteError{Status: 2} // stRecoveryInProgress
	draining := &netsrv.RemoteError{Status: 6}   // stDraining
	dead := fmt.Errorf("%w: %w", netsrv.ErrClosed, io.ErrUnexpectedEOF)
	const lines = 12
	mixed := func(seed int64) []block {
		rng := rand.New(rand.NewSource(seed))
		return genBlocks(rng, 12, lines, func() bool { return rng.Intn(2) == 0 })
	}
	// A dying transport kills a whole batch frame, so every write in this
	// stream is the first to its addr: each one meets the death.
	firstWrites := func(seed int64) []block {
		blks := genBlocks(rand.New(rand.NewSource(seed)), 8, lines, func() bool { return true })
		next := uint64(0)
		for _, blk := range blks {
			for i := range blk.addrs {
				blk.addrs[i] = next * lineBytes
				next++
			}
		}
		return blks
	}
	all := make([]uint64, lines)
	allVers := make([]byte, lines)
	for i := range all {
		all[i], allVers[i] = uint64(i)*lineBytes, 200
	}
	poisoned := func(both bool) []block {
		return []block{
			{write: true, addrs: all, vers: allVers},
			{do: func(c *Client) {
				for a := uint64(0); a < lines/2; a++ {
					c.eps[0].markMissed(a*lineBytes, lineBytes)
					if both {
						c.eps[1].markMissed(a*lineBytes, lineBytes)
					}
				}
			}},
			{addrs: all, vers: allVers},
			{addrs: all[:8], vers: allVers[:8]},
		}
	}

	for _, sc := range []struct {
		name   string
		setup  func(cfg *Config, a, b *scriptConn)
		stream []block
		allOK  bool // every op must succeed
		want   string
	}{
		{name: "recovering-then-ok", allOK: true, stream: mixed(1), setup: func(_ *Config, a, b *scriptConn) {
			for _, s := range []*scriptConn{a, b} {
				s.readErr, s.writeErr = firstFails(recovering), firstFails(recovering)
			}
		}},
		{name: "draining-then-ok", allOK: true, stream: mixed(2), setup: func(_ *Config, a, b *scriptConn) {
			for _, s := range []*scriptConn{a, b} {
				s.readErr, s.writeErr = firstFails(draining), firstFails(draining)
			}
		}},
		{name: "transport-dies/idempotent", allOK: true, stream: firstWrites(3), setup: func(cfg *Config, a, b *scriptConn) {
			cfg.IdempotentWrites = true
			a.writeErr, b.writeErr = firstFails(dead), firstFails(dead)
		}},
		{name: "transport-dies/not-idempotent", want: "ambiguous", stream: firstWrites(3), setup: func(_ *Config, a, b *scriptConn) {
			a.writeErr, b.writeErr = firstFails(dead), firstFails(dead)
		}},
		{name: "slow-replica-hedged", allOK: true, stream: mixed(4), setup: func(cfg *Config, a, _ *scriptConn) {
			a.delay = 300 * time.Millisecond
			cfg.HedgeMin, cfg.HedgeMax = 5*time.Millisecond, 5*time.Millisecond
		}},
		{name: "poison-one", allOK: true, stream: poisoned(false)},
		{name: "poison-both", want: "no-replicas", stream: poisoned(true), setup: func(cfg *Config, _, _ *scriptConn) {
			cfg.MaxRetries = 2
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			results := map[string][]outcome{}
			for _, path := range []string{"single", "batch1", "batch8"} {
				a, b := newScriptConn(), newScriptConn()
				cfg := Config{
					Endpoints: []string{"a", "b"},
					Dial:      fakeDialer(map[string]Conn{"a": a, "b": b}),
					// Breakers count a batch frame, not its ops, so they would
					// trip at different points on different paths.
					Breaker:        resilience.BreakerConfig{Disabled: true},
					MaxRetries:     5,
					RetryBase:      2 * time.Millisecond,
					RetryMax:       16 * time.Millisecond,
					RedialBackoff:  500 * time.Microsecond,
					RepairInterval: time.Hour,
					Seed:           30,
				}
				if sc.setup != nil {
					sc.setup(&cfg, a, b)
				}
				results[path] = runStream(t, newCluster(t, cfg), path, sc.stream)
			}
			ref := results["single"]
			seen := map[string]int{}
			for i, o := range ref {
				seen[o.class]++
				if sc.allOK && o.class != "ok" {
					t.Errorf("op %d: single path class %q, want ok", i, o.class)
				}
			}
			if sc.want != "" && seen[sc.want] == 0 {
				t.Errorf("no op came back %q: %v", sc.want, seen)
			}
			for _, path := range []string{"batch1", "batch8"} {
				got := results[path]
				if len(got) != len(ref) {
					t.Fatalf("%s: %d outcomes, single path %d", path, len(got), len(ref))
				}
				for i := range ref {
					if got[i].class != ref[i].class || !bytes.Equal(got[i].data, ref[i].data) {
						t.Errorf("op %d: %s gave %q %x, single path %q %x",
							i, path, got[i].class, got[i].data, ref[i].class, ref[i].data)
					}
				}
			}
		})
	}
}

// TestClusterBatchSkewSelftest pins that the selftest skew hook reaches
// batch writes: every op of a WriteBatchCtx counts as a write, so with
// SelftestSkewEvery 1 each op silently skips one replica — no missed
// record — and the divergence is there for the verifier to find.
func TestClusterBatchSkewSelftest(t *testing.T) {
	a, b := newFakeConn(), newFakeConn()
	reg := obs.NewRegistry()
	c := newCluster(t, Config{
		Endpoints:         []string{"a", "b"},
		Dial:              fakeDialer(map[string]Conn{"a": a, "b": b}),
		SelftestSkewEvery: 1,
		RepairInterval:    time.Hour,
		Metrics:           reg,
	})
	ops := make([]pcache.WriteOp, 4)
	for i := range ops {
		ops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: pattern(uint64(i)*lineBytes, 1)}
	}
	if failed, err := c.WriteBatchCtx(context.Background(), ops); failed != 0 || err != nil {
		t.Fatalf("batch write failed=%d err=%v", failed, err)
	}
	if got := reg.Snapshot().Counter("cluster_selftest_skew_skips_total"); got != uint64(len(ops)) {
		t.Fatalf("cluster_selftest_skew_skips_total = %d, want %d", got, len(ops))
	}
	for i := range ops {
		held := 0
		for _, f := range []*fakeConn{a, b} {
			f.mu.Lock()
			if bytes.Equal(f.data[ops[i].Addr], ops[i].Data) {
				held++
			}
			f.mu.Unlock()
		}
		if held != 1 {
			t.Fatalf("op %d is on %d replicas, want exactly 1 (the other skipped)", i, held)
		}
	}
	for _, s := range c.Endpoints() {
		if s.Missed != 0 {
			t.Fatalf("the skew hook recorded a miss: %v", s)
		}
	}
}

// TestClusterWriteBatchKeepsAddrOrder pins that a batch writing one addr
// twice lands the later op last, even when the earlier one needs a
// retry: the retried op must not overwrite its successor.
func TestClusterWriteBatchKeepsAddrOrder(t *testing.T) {
	a := newScriptConn()
	a.writeErr = firstFails(&netsrv.RemoteError{Status: 6}) // stDraining
	c := newCluster(t, Config{
		Endpoints: []string{"a"},
		Dial:      fakeDialer(map[string]Conn{"a": a}),
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
	})
	ops := []pcache.WriteOp{
		{Addr: 0, Data: pattern(0, 1)},
		{Addr: lineBytes, Data: pattern(lineBytes, 1)},
		{Addr: 0, Data: pattern(0, 2)},
	}
	if failed, err := c.WriteBatchCtx(context.Background(), ops); failed != 0 || err != nil {
		t.Fatalf("batch write failed=%d err=%v (%v)", failed, err, ops[0].Err)
	}
	got, err := c.ReadCtx(context.Background(), 0, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(0, 2)) {
		t.Fatal("the retried first write to addr 0 overwrote the later one")
	}
}

// TestHedgeDelayAllocs pins that deriving the hedge delay allocates
// nothing per read, and that the delay still follows the latency
// histogram.
func TestHedgeDelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	c := newCluster(t, Config{
		Endpoints: []string{"a", "b"},
		Dial:      fakeDialer(map[string]Conn{"a": newFakeConn(), "b": newFakeConn()}),
	})
	if d := c.hedgeDelay(); d != c.cfg.HedgeMax {
		t.Fatalf("cold hedge delay %v, want HedgeMax %v", d, c.cfg.HedgeMax)
	}
	for i := 0; i < 100; i++ {
		c.readLat.Observe(500 * time.Microsecond)
	}
	fast := c.hedgeDelay()
	if fast >= time.Millisecond || fast < c.cfg.HedgeMin {
		t.Fatalf("hedge delay %v after 100 500µs reads, want in [HedgeMin, 1ms)", fast)
	}
	if n := testing.AllocsPerRun(100, func() { c.hedgeDelay() }); n != 0 {
		t.Fatalf("hedgeDelay: %.0f allocs/call, want 0", n)
	}
	for i := 0; i < 1000; i++ {
		c.readLat.Observe(5 * time.Millisecond)
	}
	if slow := c.hedgeDelay(); slow <= fast {
		t.Fatalf("hedge delay stuck at %v after 1000 5ms reads", slow)
	}
}

// slowReplica is a fake replica whose reads take delay. A cancelled
// read returns its context's error at once, unless the replica answers
// late: then it sleeps the delay out and answers anyway, as a response
// already on the wire would. It logs the error every read returns.
type slowReplica struct {
	*fakeConn
	late time.Duration // sleep before every read, deaf to cancellation

	mu      sync.Mutex
	entered int
	errs    []error
}

func newSlowReplica(delay time.Duration, late bool) *slowReplica {
	s := &slowReplica{fakeConn: newFakeConn()}
	if late {
		s.late = delay
	} else {
		s.readDelay = delay
	}
	return s
}

func (s *slowReplica) enter() {
	s.mu.Lock()
	s.entered++
	s.mu.Unlock()
	time.Sleep(s.late)
}

func (s *slowReplica) log(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
}

func (s *slowReplica) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	s.enter()
	out, err := s.fakeConn.ReadCtx(ctx, addr, n)
	s.log(err)
	return out, err
}

func (s *slowReplica) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	s.enter()
	failed, err = s.fakeConn.ReadBatchCtx(ctx, ops)
	s.log(err)
	return failed, err
}

// settled waits until every read that entered s has returned, and
// returns their errors.
func (s *slowReplica) settled(t *testing.T) []error {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n, errs := s.entered, slices.Clone(s.errs)
		s.mu.Unlock()
		if len(errs) == n {
			return errs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slow reads never returned", n-len(errs), n)
		}
	}
}

// TestClusterStraggler pins what an attempt meets when its round ends
// without it: its conn call ends through the plane's attempt context
// with the right error, its breaker slot is released without a verdict
// (the default breaker trips after 5 failures), and a payload it
// delivers late never reaches a later read on a recycled plane.
func TestClusterStraggler(t *testing.T) {
	const lines = 64
	const delay = 50 * time.Millisecond
	hedged := func(slow *slowReplica, reg *obs.Registry) *Client {
		c := newCluster(t, Config{
			Endpoints:      []string{"slow", "fast"},
			Dial:           fakeDialer(map[string]Conn{"slow": slow, "fast": newFakeConn()}),
			HedgeMin:       5 * time.Millisecond,
			HedgeMax:       5 * time.Millisecond,
			RepairInterval: time.Hour,
			Metrics:        reg,
			Seed:           40,
		})
		for i := uint64(0); i < lines; i++ {
			if err := c.WriteCtx(context.Background(), i*lineBytes, pattern(i*lineBytes, 3)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	read := func(c *Client, ctx context.Context, addr uint64) error {
		got, err := c.ReadCtx(ctx, addr, lineBytes)
		if err == nil && !bytes.Equal(got, pattern(addr, 3)) {
			return fmt.Errorf("read %#x returned another line's bytes", addr)
		}
		return err
	}

	t.Run("hedge-loser", func(t *testing.T) {
		slow, reg := newSlowReplica(delay, false), obs.NewRegistry()
		c := hedged(slow, reg)
		// The slow replica is the primary of every other read, and the
		// hedge to the fast one wins each of those.
		for i := 0; i < 400 && reg.Snapshot().Counter("cluster_hedge_wins_total") < 10; i++ {
			if err := read(c, context.Background(), uint64(i%lines)*lineBytes); err != nil {
				t.Fatal(err)
			}
		}
		errs := slow.settled(t)
		if len(errs) < 10 {
			t.Fatalf("the slow replica lost %d times, want >= 10", len(errs))
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("loser %d returned %v, want context.Canceled", i, err)
			}
		}
		if s := c.Endpoints()[0]; s.Breaker != "closed" {
			t.Fatalf("after %d cancelled losers the slow breaker is %s, want closed", len(errs), s)
		}
	})

	t.Run("caller-deadline", func(t *testing.T) {
		slow := newSlowReplica(delay, false)
		c := newCluster(t, Config{
			Endpoints:      []string{"slow"},
			Dial:           fakeDialer(map[string]Conn{"slow": slow}),
			RepairInterval: time.Hour,
			Seed:           41,
		})
		for i := 0; i < 6; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			_, err := c.ReadCtx(ctx, 0, lineBytes)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("read %d: %v, want context.DeadlineExceeded", i, err)
			}
		}
		for i, err := range slow.settled(t) {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("attempt %d returned %v, want the caller's context.DeadlineExceeded", i, err)
			}
		}
		if s := c.Endpoints()[0]; s.Breaker != "closed" {
			t.Fatalf("after 6 deadline-cut attempts the breaker is %s, want closed", s)
		}
	})

	t.Run("late-payload", func(t *testing.T) {
		slow := newSlowReplica(delay, true)
		c := hedged(slow, obs.NewRegistry())
		// 1000 reads from four goroutines, singles and 4-op batches, while
		// the losers of earlier hedges answer 45ms after their rounds.
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				ops := make([]pcache.ReadOp, 4)
				for n := 0; n < 250; {
					if n%8 != 0 {
						if err := read(c, context.Background(), uint64(rng.Intn(lines))*lineBytes); err != nil {
							t.Error(err)
							return
						}
						n++
						continue
					}
					for i := range ops {
						ops[i] = pcache.ReadOp{Addr: uint64(rng.Intn(lines)) * lineBytes, Dst: make([]byte, lineBytes)}
					}
					if err := batchErr(c.ReadBatchCtx(context.Background(), ops)); err != nil {
						t.Error(err)
						return
					}
					for i := range ops {
						if !bytes.Equal(ops[i].Dst, pattern(ops[i].Addr, 3)) {
							t.Errorf("batch read %#x returned another line's bytes", ops[i].Addr)
							return
						}
					}
					n += len(ops)
				}
			}(w)
		}
		wg.Wait()
		if late := len(slow.settled(t)); late == 0 {
			t.Fatal("no read was hedged against the slow replica")
		}
	})
}
