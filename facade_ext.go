package twodcache

// Façade over the manufacturing-test, repair, scrubbing, and trace
// subsystems.

import (
	"io"

	"twodcache/internal/bist"
	"twodcache/internal/cluster"
	"twodcache/internal/fault"
	"twodcache/internal/netsrv"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/redundancy"
	"twodcache/internal/resilience"
	"twodcache/internal/scrub"
	"twodcache/internal/store"
	"twodcache/internal/trace"
	"twodcache/internal/workload"
)

// --- BIST / march testing -----------------------------------------------

// TestMemory is the bit-addressable array interface the march engine
// drives.
type TestMemory = bist.Memory

// MarchAlgorithm is a named march test.
type MarchAlgorithm = bist.Algorithm

// MarchResult summarises one march run.
type MarchResult = bist.Result

// FaultyArray is a bit array with injectable manufacturing defects
// (stuck-at and transition faults).
type FaultyArray = bist.FaultyArray

// CellFault is one injected defect.
type CellFault = bist.CellFault

// Manufacturing defect kinds.
const (
	StuckAt0       = bist.StuckAt0
	StuckAt1       = bist.StuckAt1
	TransitionUp   = bist.TransitionUp
	TransitionDown = bist.TransitionDown
)

// NewFaultyArray builds a defect-injectable array for BIST studies.
func NewFaultyArray(rows, cols int) (*FaultyArray, error) {
	return bist.NewFaultyArray(rows, cols)
}

// MarchCMinus returns the 10N March C- test (stuck-at + transition +
// unlinked coupling coverage) — the complexity class the paper equates
// 2D recovery latency to (§4).
func MarchCMinus() MarchAlgorithm { return bist.MarchCMinus() }

// MarchX returns the 6N March X test.
func MarchX() MarchAlgorithm { return bist.MarchX() }

// MATSPlus returns the 5N MATS+ test.
func MATSPlus() MarchAlgorithm { return bist.MATSPlus() }

// RunMarch executes a march test over a memory.
func RunMarch(mem TestMemory, alg MarchAlgorithm) MarchResult { return bist.Run(mem, alg) }

// --- redundancy / BISR ----------------------------------------------------

// RepairConfig describes spare rows/columns and optional in-line ECC.
type RepairConfig = redundancy.Config

// RepairPlan is a spare allocation.
type RepairPlan = redundancy.Plan

// RepairOutcome is the result of a full BISR pass.
type RepairOutcome = bist.RepairOutcome

// AllocateRepairs plans spare usage for a set of defective cells using
// must-repair reduction plus greedy cover, optionally absorbing
// single-bit faults into ECC (the paper's §5.2 synergy).
func AllocateRepairs(cfg RepairConfig, faults []redundancy.Fault) (RepairPlan, error) {
	return redundancy.Allocate(cfg, faults)
}

// SelfRepair runs the full BISR flow: march test, allocation,
// re-verification through the repaired address map.
func SelfRepair(arr *FaultyArray, cfg RepairConfig, alg MarchAlgorithm) (RepairOutcome, error) {
	return bist.SelfRepair(arr, cfg, alg)
}

// --- scrubbing -------------------------------------------------------------

// ScrubModel parameterises the scrub-interval accumulation study
// (§2.1).
type ScrubModel = scrub.Model

// DefaultScrubModel returns the paper-configuration bank under a modern
// multi-bit upset mix.
func DefaultScrubModel() ScrubModel { return scrub.DefaultModel() }

// --- trace record / replay --------------------------------------------------

// TraceSummary reports aggregate statistics of a recorded trace.
type TraceSummary = trace.Summary

// RecordTrace captures n instructions of the named workload (core,
// thread, seed select the stream) into w in the compact binary format.
func RecordTrace(w io.Writer, workloadName string, core, thread int, seed int64, n int) (uint64, error) {
	prof, err := workload.ByName(workloadName)
	if err != nil {
		return 0, err
	}
	src, err := workload.NewStream(prof, core, thread, seed)
	if err != nil {
		return 0, err
	}
	return trace.Record(w, src, n)
}

// ReplayTrace loads a recorded trace as a looping workload source that
// can drive the simulated cores.
func ReplayTrace(r io.Reader) (workload.Source, error) {
	return trace.NewReplayer(r)
}

// SummarizeTrace scans a recorded trace and reports its statistics.
func SummarizeTrace(r io.Reader) (TraceSummary, error) { return trace.Summarize(r) }

// --- protected functional cache ---------------------------------------------

// ProtectedCacheConfig sizes a complete 2D-protected set-associative
// cache (data and tag sub-arrays both protected).
type ProtectedCacheConfig = pcache.Config

// ProtectedCache is a functional write-back cache whose data AND tag
// stores live in 2D-coded arrays: reads and writes transparently
// detect and repair injected bit errors. ReadBatch and WriteBatch are
// its data calls — a single access is a batch of one — and each checks
// every word of every line it touches. A clean hit through a reused
// op slice performs zero heap allocations end to end. Its machine
// checks are counted in Stats and its registered metrics; it emits no
// events itself (each bank array from BankArrays takes an EventSink).
type ProtectedCache = pcache.Cache

// CacheBacking is the next memory level behind a ProtectedCache.
type CacheBacking = pcache.Backing

// NewMemoryBacking returns a simple in-memory backing store.
func NewMemoryBacking(lineBytes int) *pcache.MapBacking {
	return pcache.NewMapBacking(lineBytes)
}

// NewProtectedCache builds the cache over a backing store.
func NewProtectedCache(cfg ProtectedCacheConfig, backing CacheBacking) (*ProtectedCache, error) {
	return pcache.New(cfg, backing)
}

// ErrCacheUncorrectable is the ProtectedCache's machine-check
// equivalent: an error footprint beyond the 2D coverage was detected.
// Recover with ProtectedCache.Repair, or let a ResilientCache's
// escalation ladder handle it. Match with errors.Is; the concrete
// error is always a *CacheUncorrectableError carrying the location.
var ErrCacheUncorrectable = pcache.ErrUncorrectable

// CacheUncorrectableError is the located machine-check: which array
// (data or tags), set, and way tripped beyond 2D coverage. It wraps
// ErrCacheUncorrectable.
type CacheUncorrectableError = pcache.UncorrectableError

// --- online resilience engine ------------------------------------------------

// ResilienceConfig tunes the recovery escalation ladder (retry → word
// recovery → full 2D recovery → decommission/remap). Every ladder,
// breaker, watchdog and scrub outcome is a counter in its Metrics
// registry; install an EventSink with ResilientCache.SetEventSink.
type ResilienceConfig = resilience.Config

// ResilientCache wraps a ProtectedCache with the online escalation
// ladder: its ReadBatch/WriteBatch (and their deadline-bounded Ctx
// forms) and Flush never surface a DUE that graceful degradation could
// absorb, and its Report exposes the health API. A failed op is
// re-driven through the ladder as a batch of its own.
type ResilientCache = resilience.Engine

// HealthReport is the resilience health snapshot: DUE rate, MTTR,
// per-rung escalation counts, scrub activity, and capacity lost to
// decommissioning.
type HealthReport = resilience.Report

// ScrubberConfig tunes the background scrubber (sweep interval,
// traffic-awareness threshold, catch-up bound).
type ScrubberConfig = resilience.ScrubberConfig

// CacheScrubber is the traffic-aware background sweeper; start it with
// Run(ctx) and stop it by cancelling the context.
type CacheScrubber = resilience.Scrubber

// --- bounded-latency operation -----------------------------------------------

// RecoveryBreakerConfig tunes the per-bank circuit breakers that sit in
// front of the recovery rungs (closed → open → half-open with probe
// repairs). Set via ResilienceConfig.Breaker.
type RecoveryBreakerConfig = resilience.BreakerConfig

// RecoveryWatchdogConfig tunes the stuck-repair watchdog (repair
// budget, scan cadence).
type RecoveryWatchdogConfig = resilience.WatchdogConfig

// RecoveryWatchdog force-escalates in-flight repairs that outlive their
// budget; build one with ResilientCache.NewWatchdog and run it with
// Start/Stop.
type RecoveryWatchdog = resilience.Watchdog

// ErrRecoveryInProgress matches (via errors.Is) the errors a bounded
// request gets when it abandoned an in-flight repair at its deadline
// instead of riding it to the end: per op from ReadBatchCtx and
// WriteBatchCtx, from FlushCtx, and over the wire from a NetClient's or
// ClusterClient's Ctx calls. The concrete error is a
// *RecoveryInProgressError with the repair's progress; the triggering
// context error is also in the chain.
var ErrRecoveryInProgress = resilience.ErrRecoveryInProgress

// RecoveryInProgressError carries the abandoned repair's progress
// (bank, fault location, rung reached, elapsed time).
type RecoveryInProgressError = resilience.RecoveryInProgressError

// RecoveryStall is a chaos-injectable stall point; arm one and pass it
// via ResilienceConfig.RecoveryStall to wedge the full-2D rung and
// prove the watchdog unsticks it.
type RecoveryStall = fault.Stall

// NewResilientCache builds a protected cache over the backing store
// and wraps it with the recovery escalation ladder. Attach a
// background scrubber with ResilientCache.NewScrubber.
func NewResilientCache(cfg ProtectedCacheConfig, backing CacheBacking, rcfg ResilienceConfig) (*ResilientCache, error) {
	c, err := pcache.New(cfg, backing)
	if err != nil {
		return nil, err
	}
	return resilience.New(c, rcfg), nil
}

// --- sharded storage engine ----------------------------------------------------

// CacheStore is the storage-engine interface both a ResilientCache and
// a ShardedCache satisfy: batch-amortised ReadBatch/WriteBatch (plus
// deadline-bounded Ctx variants) and Flush. Batches are the only data
// path below the network clients, down to the ProtectedCache — a
// single op is a batch of one. Program against it to swap shard counts
// without touching call sites; Stats, metrics and event wiring live on
// the concrete types.
type CacheStore = store.Store

// ShardedCacheConfig assembles a sharded store: the shard count, the
// PER-SHARD cache geometry, the per-shard resilience template, and
// optional per-shard scrubbers and watchdogs (run with Start/Stop).
type ShardedCacheConfig = store.Config

// ShardedCache stripes line addresses across N fully independent
// ResilientCache instances: separate bank locks, breakers, scrubbers,
// and watchdogs per shard, so a storm or open breaker on one shard is
// invisible to the others. Per-shard metrics appear under "shard<i>_"
// prefixes in the root registry, cross-shard aggregates under
// "store_".
type ShardedCache = store.Sharded

// BatchReadOp is one read of a batch: a line-local span and, after the
// call, its outcome in Err.
type BatchReadOp = pcache.ReadOp

// BatchWriteOp is one write of a batch.
type BatchWriteOp = pcache.WriteOp

// NewShardedCache builds a sharded resilient store over one backing.
// Every shard sees the global address space — the backing observes
// exactly the addresses callers used, so a 1-shard and an N-shard
// store are interchangeable over the same data.
func NewShardedCache(cfg ShardedCacheConfig, backing CacheBacking) (*ShardedCache, error) {
	return store.New(cfg, backing)
}

// --- network serving layer ----------------------------------------------------

// NetServerConfig assembles a NetServer: the CacheStore to serve, the
// pipelined-single accumulation threshold, per-connection response
// queue bound, connection cap, metrics registry, and the optional loss
// epoch oracle behind the EPOCH opcode.
type NetServerConfig = netsrv.Config

// NetServer serves a CacheStore over TCP with the pipelined
// length-prefixed binary protocol: per-connection request accumulation
// onto the bank-amortised batch path, bounded response queues for
// backpressure, and graceful drain via Shutdown.
type NetServer = netsrv.Server

// NetClient is the pipelined protocol client — safe for concurrent
// callers, over one connection. Its data calls take a context whose
// deadline travels in the frame: ReadBatchCtx and WriteBatchCtx, and
// ReadCtx and WriteCtx, which send a batch of one; Flush/FlushCtx
// write back the server's dirty lines. Remote failures unwrap to the
// same sentinels local calls return.
type NetClient = netsrv.Client

// Protocol-level failures surfaced by a NetClient.
var (
	ErrNetDraining    = netsrv.ErrDraining
	ErrNetBadRequest  = netsrv.ErrBadRequest
	ErrNetUnsupported = netsrv.ErrUnsupported
	ErrNetClosed      = netsrv.ErrClosed
)

// NewNetServer builds a protocol server over cfg.Store.
func NewNetServer(cfg NetServerConfig) (*NetServer, error) { return netsrv.NewServer(cfg) }

// DialNet connects a NetClient to a serving NetServer.
func DialNet(addr string) (*NetClient, error) { return netsrv.Dial(addr) }

// --- replicated cluster client -------------------------------------------------

// ClusterConfig assembles a ClusterClient: replica endpoints, the
// per-endpoint health breaker, hedging and retry policy, and the
// idempotent-writes declaration that gates retrying past ambiguity.
type ClusterConfig = cluster.Config

// ClusterClient is the replicated client over N NetServer endpoints:
// hedged reads, bounded failover retries, write fan-out with
// read-repair, and the freshness invariant that a replica which missed
// a write never serves a read for it. Its data calls are ReadCtx,
// WriteCtx, ReadBatchCtx and WriteBatchCtx; singles and batches share
// one read plane and one write plane, so an op gets the same hedging,
// retries and error class whichever form sent it.
type ClusterClient = cluster.Client

// ClusterConn is the per-endpoint transport a ClusterClient drives —
// NetClient satisfies it; tests may substitute fakes via
// ClusterConfig.Dial.
type ClusterConn = cluster.Conn

// ClusterEndpointStatus is one endpoint's health summary
// (ClusterClient.Endpoints).
type ClusterEndpointStatus = cluster.EndpointStatus

// Failures surfaced by a ClusterClient.
var (
	// ErrClusterAmbiguousWrite: the write failed on every replica and at
	// least one failure left the outcome unknown; the client will not
	// retry unless ClusterConfig.IdempotentWrites is set.
	ErrClusterAmbiguousWrite = cluster.ErrAmbiguousWrite
	// ErrClusterNoReplicas: no fresh, healthy replica could serve the
	// request.
	ErrClusterNoReplicas = cluster.ErrNoReplicas
	// ErrClusterClosed: the client has been closed.
	ErrClusterClosed = cluster.ErrClosed
)

// DialCluster builds a ClusterClient and dials every endpoint
// (endpoints that refuse start down and are redialled in the
// background).
func DialCluster(cfg ClusterConfig) (*ClusterClient, error) { return cluster.New(cfg) }

// --- network chaos proxy -------------------------------------------------------

// ChaosProxyConfig parameterises a ChaosProxy: per-chunk probabilities
// for resets, torn frames, black-hole drops, and delays, all drawn from
// seed-derived streams for reproducible runs.
type ChaosProxyConfig = fault.ChaosProxyConfig

// ChaosProxy is a seed-deterministic TCP fault injector to put in front
// of a NetServer — the network analogue of the in-memory fault Storm.
type ChaosProxy = fault.ChaosProxy

// NewChaosProxy binds the proxy's listener and starts accepting.
func NewChaosProxy(cfg ChaosProxyConfig) (*ChaosProxy, error) { return fault.NewChaosProxy(cfg) }

// --- observability -----------------------------------------------------------

// MetricsRegistry is the coherent metrics registry every subsystem
// registers into: snapshot it (coherent, clamped, monotonic), publish
// it over expvar, or mount its Prometheus text handler. Pass one via
// ResilienceConfig.Metrics to share a registry with the engine.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is one coherent point-in-time view of a registry.
type MetricsSnapshot = obs.Snapshot

// LatencyHistogram is a registry-managed latency histogram; snapshot it
// for exact-bound SLO accounting (HistogramSnapshot.CountLE) and
// interpolated quantiles.
type LatencyHistogram = obs.Histogram

// EventSink receives the two timed events a metrics registry does not
// carry: RecoveryEnd after every 2D recovery pass of a bank array
// (install with the array's SetEventSink) and ScrubPass after every
// completed scrub sweep (install with ResilientCache.SetEventSink or
// ShardedCache.SetEventSink). Everything else is a registered counter.
type EventSink = obs.Sink

// NopEventSink is the do-nothing EventSink (the default); embed it to
// override one method.
type NopEventSink = obs.NopSink

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
