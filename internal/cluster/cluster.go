// Package cluster is the replicated client over N netsrv endpoints: a
// drop-in store-shaped API whose reads survive a slow or dead replica
// and whose writes fan out to every replica with read-repair for the
// ones that miss.
//
// The correctness invariant the whole package hangs off is freshness:
// an endpoint may serve a read for addr only if it is not known (or
// suspected) to have missed a write to addr. Every failed, shed, or
// ambiguous per-replica write lands addr in that replica's missed set;
// a reconnect after a connection loss conservatively marks every addr
// the cluster ever wrote (a restarted replica is an empty replica, and
// the client cannot tell a blip from a restart). Reads are routed only
// to fresh endpoints, so a stale replica can never answer with old
// bytes — the failure mode that would read as silent corruption to the
// shadow verifier. A background repair loop drains missed sets by
// copying from a fresh replica under the same per-addr stripe locks
// writes hold, so repair never interleaves with a newer write.
//
// Reads and writes each run through one plane that works on batches; a
// single op is a batch of one, so it gets the same bytes and error
// class whichever API sent it. Reads hedge: after a delay derived from
// the live read-latency histogram (HedgeQuantile, clamped to [HedgeMin,
// HedgeMax]), ops still outstanding are re-issued to another replica
// and the first success wins. Retryable failures (recovery in progress,
// draining, transport loss) fail over immediately and then retry with
// jittered exponential backoff while deadline headroom remains. Writes
// never retry past ambiguity: if every replica failed an op and any
// failure was ambiguous (the request may have been applied), the op
// fails with ErrAmbiguousWrite rather than risk a double apply — unless
// the caller declares writes idempotent.
//
// Per-endpoint health is a resilience.HealthBreaker (closed → open →
// half-open with single probes), the same state machine that guards
// cache banks, so endpoint misbehaviour sheds load the same way bank
// misbehaviour does.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/netsrv"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Errors surfaced by the cluster client.
var (
	// ErrClosed reports that the client has been closed.
	ErrClosed = errors.New("cluster: client closed")
	// ErrNoReplicas reports that no fresh, healthy replica could serve
	// the request right now — a loud, accounted failure, never a stale
	// answer.
	ErrNoReplicas = errors.New("cluster: no fresh replica available")
	// ErrAmbiguousWrite reports a write whose outcome is unknown on
	// every replica: it may or may not have been applied somewhere.
	// Retrying is the caller's call (safe iff the write is idempotent);
	// the client will not make it unilaterally.
	ErrAmbiguousWrite = errors.New("cluster: write outcome ambiguous")
)

// Conn is the per-endpoint transport the cluster drives — the subset of
// netsrv.Client it needs, an interface so tests can substitute
// in-process fakes. The batch forms carry per-op outcomes in each op's
// Err field and return a transport-level error only when no op was
// served; a ctx deadline travels in the batch frame and bounds the
// whole batch server-side.
type Conn interface {
	ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error)
	WriteCtx(ctx context.Context, addr uint64, data []byte) error
	ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error)
	WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error)
	FlushCtx(ctx context.Context) error
	Epoch(addr uint64) (uint64, error)
	Close() error
}

// Config parameterises a cluster Client.
type Config struct {
	// Endpoints are the replica addresses. At least one is required;
	// every replica is assumed to start from the same (empty) state.
	Endpoints []string
	// Dial opens a transport to one endpoint. Nil selects netsrv.Dial.
	Dial func(addr string) (Conn, error)
	// Breaker configures each endpoint's health breaker. The zero value
	// selects the resilience defaults (threshold 5, open 10ms, 2 probes).
	Breaker resilience.BreakerConfig
	// HedgeQuantile is the read-latency quantile the hedge delay tracks
	// (default 0.95): a hedge fires when a read has outlived that share
	// of recent reads.
	HedgeQuantile float64
	// HedgeMin and HedgeMax clamp the derived hedge delay (defaults
	// 200µs and 20ms). Until enough samples accumulate the delay sits at
	// HedgeMax, so a cold client cannot hedge-storm.
	HedgeMin, HedgeMax time.Duration
	// DisableHedging turns hedged reads off (failover and retry remain).
	DisableHedging bool
	// MaxRetries bounds cluster-level retries after the first attempt
	// (default 3). Zero means default; negative means none.
	MaxRetries int
	// RetryBase and RetryMax bound the jittered exponential backoff
	// between retries (defaults 500µs and 10ms).
	RetryBase, RetryMax time.Duration
	// IdempotentWrites declares that re-applying a write is harmless,
	// allowing retries past ambiguous per-replica outcomes.
	IdempotentWrites bool
	// Seed fixes the retry-jitter stream for reproducible runs.
	Seed int64
	// Metrics receives the cluster_* metric family; nil uses a private
	// registry (metrics still work, nobody exports them).
	Metrics *obs.Registry
	// RedialBackoff is the initial pause between reconnect attempts to a
	// down endpoint (default 10ms, doubling to 500ms).
	RedialBackoff time.Duration
	// RepairInterval is the read-repair scan period (default 2ms).
	RepairInterval time.Duration
	// RepairBatch bounds addrs repaired per endpoint per pass
	// (default 64).
	RepairBatch int
	// SelftestSkewEvery, when positive, deliberately skips one replica
	// on every Nth write WITHOUT recording the miss — an injected
	// replication bug that must surface as silent corruption in the
	// shadow verifier. It exists so the soak gate can prove it would
	// catch real divergence; never set it outside that drill.
	SelftestSkewEvery int
}

func (c Config) withDefaults() Config {
	if c.Dial == nil {
		c.Dial = func(addr string) (Conn, error) { return netsrv.Dial(addr) }
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 200 * time.Microsecond
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = max(20*time.Millisecond, c.HedgeMin)
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Microsecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = max(10*time.Millisecond, c.RetryBase)
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 10 * time.Millisecond
	}
	if c.RepairInterval <= 0 {
		c.RepairInterval = 2 * time.Millisecond
	}
	if c.RepairBatch <= 0 {
		c.RepairBatch = 64
	}
	return c
}

// numStripes is the per-addr lock fan-out: writes and repairs to the
// same addr serialise, unrelated addrs almost never collide.
const (
	stripeBits = 8
	numStripes = 1 << stripeBits
)

// Client is a replicated cluster client. Safe for concurrent use.
type Client struct {
	cfg Config
	eps []*endpoint

	stripes [numStripes]sync.Mutex

	mu      sync.Mutex
	written map[uint64]int // every addr ever written → last length
	rng     *rand.Rand     // retry jitter; guarded by mu

	rr       atomic.Uint64 // read round-robin cursor
	writeSeq atomic.Uint64 // selftest-skew counter
	hedgeAt  atomic.Uint64 // read-latency samples at the last hedge-delay derivation

	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	reads, writes   *obs.Counter
	hedges          *obs.Counter
	hedgeWins       *obs.Counter
	hedgeWasted     *obs.Counter
	retries         *obs.Counter
	readRepairs     *obs.Counter
	redials         *obs.Counter
	ambiguousWrites *obs.Counter
	noReplicaErrors *obs.Counter
	breakerTrips    *obs.Counter
	readLat         *obs.Histogram
	hedgeDelayGauge *obs.Gauge
	selftestSkipped *obs.Counter
}

// New dials every endpoint and starts the repair loop. Endpoints that
// refuse the initial dial start down and are redialled in the
// background — a cluster with one live replica is degraded, not dead.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("cluster: Config.Endpoints is empty")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg = reg.WithPrefix("cluster_")
	c := &Client{
		cfg:     cfg,
		written: map[uint64]int{},
		rng:     rand.New(rand.NewSource(fault.DeriveSeed(cfg.Seed, 0x636c757374))),
		done:    make(chan struct{}),
	}
	c.reads = reg.Counter("reads_total", "cluster reads issued")
	c.writes = reg.Counter("writes_total", "cluster writes issued")
	c.hedges = reg.Counter("hedges_total", "hedge reads launched")
	c.hedgeWins = reg.Counter("hedge_wins_total", "hedge reads that returned first")
	c.hedgeWasted = reg.Counter("hedge_wasted_total", "hedge reads beaten by the primary")
	c.retries = reg.Counter("retries_total", "cluster-level retries")
	c.readRepairs = reg.Counter("read_repairs_total", "addrs repaired onto stale replicas")
	c.redials = reg.Counter("redials_total", "reconnect attempts to down endpoints")
	c.ambiguousWrites = reg.Counter("ambiguous_writes_total", "writes surfaced as ErrAmbiguousWrite")
	c.noReplicaErrors = reg.Counter("no_replica_errors_total", "requests that found no fresh replica")
	c.breakerTrips = reg.Counter("breaker_trips_total", "endpoint breakers tripped open")
	c.selftestSkipped = reg.Counter("selftest_skew_skips_total", "writes deliberately skipped by the selftest skew hook")
	c.readLat = reg.Histogram("read_latency", "winner latency of cluster reads")
	c.hedgeDelayGauge = reg.Gauge("hedge_delay_ns", "current derived hedge delay")
	reg.ClampLE("hedge_wins_total", "hedges_total")
	reg.ClampLE("hedge_wasted_total", "hedges_total")

	for i, addr := range cfg.Endpoints {
		ep := newEndpoint(c, i, addr)
		c.eps = append(c.eps, ep)
		if conn, err := cfg.Dial(addr); err == nil {
			ep.conn = conn
		} else {
			ep.startRedialLocked()
		}
	}
	reg.GaugeFunc("endpoints_connected", "endpoints with a live transport", func() int64 {
		var n int64
		for _, ep := range c.eps {
			ep.mu.Lock()
			if ep.conn != nil {
				n++
			}
			ep.mu.Unlock()
		}
		return n
	})
	c.wg.Add(1)
	go c.repairLoop()
	return c, nil
}

// Close stops the repair and redial loops and closes every transport.
// In-flight calls fail with ErrClosed or their transport's error.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.done)
	c.wg.Wait()
	for _, ep := range c.eps {
		ep.mu.Lock()
		if ep.conn != nil {
			ep.conn.Close()
			ep.conn = nil
		}
		ep.mu.Unlock()
	}
	return nil
}

// Epoch reports the cluster loss epoch for addr: the max over reachable
// replicas. A restarted replica reports 0 and cannot drag the max down,
// so accounted loss stays accounted across restarts.
func (c *Client) Epoch(addr uint64) (uint64, error) {
	var (
		best    uint64
		got     bool
		lastErr error
	)
	for _, ep := range c.eps {
		conn := ep.liveConn()
		if conn == nil {
			continue
		}
		e, err := conn.Epoch(addr)
		if err != nil {
			lastErr = err
			if isTransportDead(err) {
				ep.markDown(conn)
			}
			continue
		}
		got, best = true, max(best, e)
	}
	if !got {
		if lastErr == nil {
			lastErr = ErrNoReplicas
		}
		return 0, lastErr
	}
	return best, nil
}

// Flush flushes every reachable replica; see FlushCtx.
func (c *Client) Flush() error { return c.FlushCtx(context.Background()) }

// FlushCtx writes back dirty lines on every reachable replica. It
// attempts all replicas and returns the first error (a stale replica
// failing its flush still matters: its dirty lines are the ones repair
// will overwrite, but a fresh replica failing is data at risk).
func (c *Client) FlushCtx(ctx context.Context) error {
	var firstErr error
	flushed := 0
	for _, ep := range c.eps {
		conn := ep.liveConn()
		if conn == nil {
			continue
		}
		if err := conn.FlushCtx(ctx); err != nil {
			if isTransportDead(err) {
				ep.markDown(conn)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		flushed++
	}
	if flushed == 0 && firstErr == nil {
		return ErrNoReplicas
	}
	return firstErr
}

// noteWritten records addr in the global written set — the conservative
// resync source for reconnecting replicas.
func (c *Client) noteWritten(addr uint64, n int) {
	c.mu.Lock()
	c.written[addr] = n
	c.mu.Unlock()
}

// writtenSnapshot copies the global written set for a reconnect resync.
func (c *Client) writtenSnapshot() map[uint64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[uint64]int, len(c.written))
	for a, n := range c.written {
		m[a] = n
	}
	return m
}

// jitteredBackoff returns the pause before retry attempt (0-based):
// RetryBase·2^attempt capped at RetryMax, scaled by a uniform factor in
// [0.5, 1.5) from the seeded jitter stream.
func (c *Client) jitteredBackoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.mu.Lock()
	f := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(f * float64(d))
}

// backoff pauses before retry round attempt+1 of n retryable ops and
// reports whether to run it. With nothing to retry, no retry left, or
// too little deadline headroom (sleeping into the caller's deadline
// turns a replica hiccup into a caller timeout) the ops keep their last
// error; a non-nil error replaces it: the caller's ctx ended or the
// client closed.
func (c *Client) backoff(ctx context.Context, attempt, n int) (bool, error) {
	if n == 0 || attempt >= c.cfg.MaxRetries {
		return false, nil
	}
	pause := c.jitteredBackoff(attempt)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 2*pause {
		return false, nil
	}
	c.retries.Add(uint64(n))
	select {
	case <-time.After(pause):
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	case <-c.done:
		return false, ErrClosed
	}
}

// callErr is the call-level error a plane call fails with before any
// op goes out: a closed client or an ended context.
func (c *Client) callErr(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// hedgeDelay derives the current hedge trigger from the live latency
// histogram: the configured quantile, clamped. With under 64 samples it
// answers HedgeMax so a cold client cannot hedge-storm. A histogram
// snapshot allocates, so the quantile is re-derived once per 64 new
// samples; the hedge_delay_ns gauge holds it in between.
func (c *Client) hedgeDelay() time.Duration {
	if n := c.readLat.Count(); n < 64 {
		c.hedgeDelayGauge.Set(int64(c.cfg.HedgeMax))
	} else if n-c.hedgeAt.Load() >= 64 {
		s := c.readLat.Snapshot()
		c.hedgeAt.Store(s.Count)
		d := min(max(s.Quantile(c.cfg.HedgeQuantile), c.cfg.HedgeMin), c.cfg.HedgeMax)
		c.hedgeDelayGauge.Set(int64(d))
	}
	return time.Duration(c.hedgeDelayGauge.Load())
}

// stripe returns the lock serialising writes and repairs for addr.
func (c *Client) stripe(addr uint64) *sync.Mutex {
	return &c.stripes[stripeIndex(addr)]
}

// stripeIndex maps addr to its stripe: the top stripeBits bits of a
// 64-bit Fibonacci hash. Callers use line-aligned addresses, whose low
// bits are all zero, so the address must be mixed before it is cut
// down: addr%numStripes would leave most stripes idle.
func stripeIndex(addr uint64) int {
	return int(addr * 0x9E3779B97F4A7C15 >> (64 - stripeBits))
}

// Endpoints reports each endpoint's address, breaker state, transport
// liveness, and missed-addr backlog — the operator's view.
func (c *Client) Endpoints() []EndpointStatus {
	out := make([]EndpointStatus, len(c.eps))
	for i, ep := range c.eps {
		ep.mu.Lock()
		out[i] = EndpointStatus{
			Addr:      ep.addr,
			Connected: ep.conn != nil,
			Breaker:   ep.brk.State(),
			Missed:    len(ep.missed),
		}
		ep.mu.Unlock()
	}
	return out
}

// EndpointStatus is one endpoint's health summary.
type EndpointStatus struct {
	Addr      string
	Connected bool
	Breaker   string
	Missed    int
}

// String renders the status compactly for logs.
func (s EndpointStatus) String() string {
	conn := "down"
	if s.Connected {
		conn = "up"
	}
	return fmt.Sprintf("%s[%s/%s missed=%d]", s.Addr, conn, s.Breaker, s.Missed)
}
