// Package resilience turns the protected cache into an online,
// self-healing system: the paper's premise is that correction is a
// rare, slow background process decoupled from fast detection (§4,
// Fig. 4(b)), so this package supplies the runtime half — a recovery
// escalation ladder that replaces one-shot recovery, a traffic-aware
// background scrubber, and a health report — so the cache keeps
// serving traffic while faults arrive continuously.
//
// The escalation ladder runs on every detected-uncorrectable (DUE)
// access, cheapest rung first:
//
//  1. retry — re-issue the access; a concurrent scrubber or another
//     client's repair may already have cleared the damage.
//  2. word recovery — targeted horizontal correction of exactly the
//     failed word(s), no array-wide march.
//  3. full 2D recovery — the Fig. 4(b) process over the whole bank.
//  4. graceful degradation — the affected way is decommissioned (its
//     line refetched from backing on the next access; unflushed dirty
//     data is counted as lost), and, if a spare-row budget remains,
//     remapped to a spare via the redundancy allocator and returned to
//     service.
//
// Rung 4 terminates: each pass retires one more way, and a fully
// retired set bypasses the arrays entirely, so the ladder ends in a
// usable, smaller cache rather than an error loop.
//
// All instrumentation is served through an obs.Registry: every ladder
// counter is an obs.Counter, ladder latency lands in a histogram, and
// Report() is built from one coherent Snapshot, so concurrent readers
// can never observe impossible states (retry hits exceeding retries,
// repairs exceeding DUEs).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/redundancy"
)

// Config tunes the escalation ladder.
type Config struct {
	// MaxRetries is how many times rung 1 re-issues the access before
	// escalating. Zero selects 1; negative disables the rung.
	MaxRetries int
	// SpareRows is the spare-row budget for remapping decommissioned
	// ways back into service (rung 4). Zero disables remapping.
	SpareRows int
	// Clock overrides the time source (tests). Nil selects time.Now.
	Clock func() time.Time
	// Metrics is the registry New registers the engine's, its
	// scrubber's and its cache's metrics into, once; serve it to read
	// them. Nil selects a private registry that only Report reads. One
	// registry serves one engine: a second engine registering into it
	// panics on the duplicate names.
	Metrics *obs.Registry
	// Breaker tunes the per-bank circuit breakers in front of the
	// recovery rungs (see BreakerConfig). The zero value enables them
	// with defaults; set Disabled to opt out.
	Breaker BreakerConfig
	// RepairBudget bounds one in-flight repair: a repair still running
	// this long after its DUE entered the ladder (engine clock) is
	// force-escalated — its way is decommissioned and its rungs are
	// cancelled. Zero leaves repairs unbounded.
	RepairBudget time.Duration
	// RecoveryStall, when non-nil, is a chaos stall point hit (under
	// the repair context) at the entry of the full-2D rung — the rung
	// that models the paper's whole-bank recovery sweep. Tests and
	// cmd/soak arm it to prove RepairBudget unsticks wedged repairs.
	RecoveryStall *fault.Stall
}

// Engine metric names (see DESIGN.md §8 for the full catalogue).
const (
	metricDUEs          = "resilience_dues_total"
	metricRetries       = "resilience_retries_total"
	metricRetryHits     = "resilience_retry_hits_total"
	metricWordAttempts  = "resilience_word_attempts_total"
	metricWordHits      = "resilience_word_hits_total"
	metricFullAttempts  = "resilience_full_attempts_total"
	metricFullHits      = "resilience_full_hits_total"
	metricDecommissions = "resilience_decommissions_total"
	metricRemaps        = "resilience_remaps_total"
	metricExhausted     = "resilience_exhausted_total"
	metricLadderSeconds = "resilience_ladder_seconds"

	metricCoalesced          = "resilience_coalesced_waits_total"
	metricSheds              = "resilience_sheds_total"
	metricBreakerTrips       = "resilience_breaker_trips_total"
	metricBreakerTransitions = "resilience_breaker_transitions_total"
	metricWatchdogFires      = "resilience_watchdog_fires_total"
	metricDeadlineAborts     = "resilience_deadline_aborts_total"
	metricBreakersOpen       = "resilience_breakers_open"

	metricScrubPasses   = "scrub_passes_total"
	metricScrubBackoffs = "scrub_backoffs_total"
	metricScrubVictims  = "scrub_victims_total"
	metricScrubSeconds  = "scrub_pass_seconds"
)

// Engine wraps a protected cache with the recovery escalation ladder.
// All methods are safe for concurrent use.
type Engine struct {
	cache   *pcache.Cache
	cfg     Config
	clock   func() time.Time
	metrics *obs.Registry

	// sink holds the structured event sink behind an atomic pointer so
	// SetEventSink can swap it while scrub sweeps are emitting. Always
	// non-nil (NopSink by default); read via snk().
	sink atomic.Pointer[obs.Sink]

	// remap state: the accumulated faulty way-rows presented to the
	// redundancy allocator, and which ways already consumed their one
	// remap (a second failure means the spare itself is bad).
	mu           sync.Mutex
	faultyRows   []redundancy.Fault
	remappedOnce map[int]bool
	scrubber     *Scrubber

	// Bounded-latency state: one in-flight repair slot per bank
	// (single-flight), one circuit breaker per bank, and the optional
	// chaos stall point hit at the full-2D rung.
	flightMu sync.Mutex
	flights  map[int]*flight
	breakers []*HealthBreaker
	stall    *fault.Stall

	// testHookLeadStart, when set, runs as the repair leader enters the
	// rungs — test-only, to hold a leader in place deterministically.
	testHookLeadStart func(fl *flight)

	dues          *obs.Counter
	retries       *obs.Counter
	retryHits     *obs.Counter
	wordAttempts  *obs.Counter
	wordHits      *obs.Counter
	fullAttempts  *obs.Counter
	fullHits      *obs.Counter
	decommissions *obs.Counter
	remaps        *obs.Counter
	exhausted     *obs.Counter
	ladderLatency *obs.Histogram

	coalesced          *obs.Counter
	sheds              *obs.Counter
	breakerTrips       *obs.Counter
	breakerTransitions *obs.Counter
	watchdogFires      *obs.Counter
	deadlineAborts     *obs.Counter
	breakersOpen       *obs.Gauge

	// Scrub counters live on the engine (registered by New, zero
	// without a scrubber) so attaching a scrubber never re-registers
	// names.
	scrubPasses   *obs.Counter
	scrubBackoffs *obs.Counter
	scrubVictims  *obs.Counter
	scrubLatency  *obs.Histogram
}

// New builds an engine over the cache, registering the engine's, the
// scrubber's, and the cache's instrumentation into cfg.Metrics (or a
// private registry).
func New(c *pcache.Cache, cfg Config) *Engine {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 1
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	e := &Engine{
		cache:        c,
		cfg:          cfg,
		clock:        clock,
		metrics:      reg,
		remappedOnce: map[int]bool{},
		flights:      map[int]*flight{},
		stall:        cfg.RecoveryStall,
	}
	e.breakers = e.newBankBreakers(c.NumBanks())
	e.registerMetrics(reg)
	e.SetEventSink(nil)
	return e
}

// registerMetrics creates the engine's instrumentation in r and then
// registers the cache's. Snapshots read metrics in registration order
// and the replay state hash digests their names in that order, so the
// order is part of the engine's observable output. Each dependent
// registers before its bound — a rung's hits before its attempts,
// remaps before decommissions, exhausted runs, sheds and deadline
// aborts before the DUEs that entered the ladder, breaker trips before
// transitions — and every emitter counts the bound first, so a
// snapshot taken mid-ladder never shows a dependent above its bound.
func (e *Engine) registerMetrics(r *obs.Registry) {
	e.exhausted = r.Counter(metricExhausted, "ladder runs that failed even after degradation")
	e.sheds = r.Counter(metricSheds, "repairs routed straight to degrade by an open breaker")
	e.deadlineAborts = r.Counter(metricDeadlineAborts, "ladder runs abandoned at the caller's deadline")
	e.dues = r.Counter(metricDUEs, "detected-uncorrectable events entering the ladder")
	e.retryHits = r.Counter(metricRetryHits, "accesses rescued by a bare retry")
	e.retries = r.Counter(metricRetries, "rung-1 access re-issues")
	e.wordHits = r.Counter(metricWordHits, "accesses rescued by word recovery")
	e.wordAttempts = r.Counter(metricWordAttempts, "rung-2 targeted word recoveries attempted")
	e.fullHits = r.Counter(metricFullHits, "accesses rescued by full 2D recovery")
	e.fullAttempts = r.Counter(metricFullAttempts, "rung-3 full 2D recoveries attempted")
	e.remaps = r.Counter(metricRemaps, "retired ways remapped to spare rows")
	e.decommissions = r.Counter(metricDecommissions, "ways retired by graceful degradation")
	e.ladderLatency = r.Histogram(metricLadderSeconds, "DUE-to-resolution ladder latency")

	e.coalesced = r.Counter(metricCoalesced, "requests coalesced onto an in-flight bank repair")
	e.breakerTrips = r.Counter(metricBreakerTrips, "breaker transitions into the open state")
	e.breakerTransitions = r.Counter(metricBreakerTransitions, "all breaker state transitions")
	e.watchdogFires = r.Counter(metricWatchdogFires, "stuck repairs force-escalated at their repair budget")
	e.breakersOpen = r.Gauge(metricBreakersOpen, "banks currently behind an open breaker")

	e.scrubPasses = r.Counter(metricScrubPasses, "completed scrub sweeps")
	e.scrubBackoffs = r.Counter(metricScrubBackoffs, "sweeps deferred under high traffic")
	e.scrubVictims = r.Counter(metricScrubVictims, "unrepairable ways retired by sweeps")
	e.scrubLatency = r.Histogram(metricScrubSeconds, "whole-sweep scrub latency")

	e.cache.RegisterMetrics(r)
}

// SetEventSink installs (or, with nil, removes — reverting to the
// no-op sink) the structured event sink that receives the engine's
// ScrubPass events. Safe to call concurrently with traffic and scrub
// sweeps; an event being emitted as the sink swaps lands in exactly one
// of the two sinks.
func (e *Engine) SetEventSink(s obs.Sink) {
	if s == nil {
		s = obs.Sink(obs.NopSink{})
	}
	e.sink.Store(&s)
}

// snk returns the current event sink (never nil).
func (e *Engine) snk() obs.Sink { return *e.sink.Load() }

// Cache returns the underlying protected cache (for fault injection,
// statistics, and direct access).
func (e *Engine) Cache() *pcache.Cache { return e.cache }

// Stats returns the underlying cache's coherent counter snapshot.
func (e *Engine) Stats() pcache.Stats { return e.cache.Stats() }

// Flush writes all dirty lines back, escalating on DUEs until the
// flush completes.
func (e *Engine) Flush() error {
	return e.FlushCtx(context.Background())
}

// FlushCtx is Flush with a latency bound: the escalation ladder honours
// ctx's deadline and cancellation at every rung boundary and while
// coalesced behind another request's repair. When the budget runs out
// mid-recovery the call returns a *RecoveryInProgressError (matching
// both ErrRecoveryInProgress and ctx.Err() via errors.Is) instead of
// riding the repair to the end; the repair itself keeps running. A
// deadline abort can leave some dirty lines unflushed.
func (e *Engine) FlushCtx(ctx context.Context) error {
	err := e.cache.Flush()
	if err == nil {
		return nil
	}
	return e.ladderCtx(ctx, err, func() error { return e.cache.Flush() })
}

// ladderCtx escalates a located DUE rung by rung, re-issuing attempt()
// after each rung until it succeeds, the degrade rung exhausts the
// set's ways, or ctx runs out. err must be the failing attempt's
// error. It observes the run's latency in resilience_ladder_seconds.
func (e *Engine) ladderCtx(ctx context.Context, err error, attempt func() error) error {
	var ue *pcache.UncorrectableError
	if !errors.As(err, &ue) {
		return err // not a machine check (span error, ...): no ladder
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.dues.Inc()
	start := e.clock()
	ferr := e.runLadder(ctx, start, &ue, attempt)
	e.ladderLatency.Observe(e.clock().Sub(start))
	return ferr
}

// runLadder is the bounded single-flight ladder. Each round the request
// either coalesces onto its bank's in-flight repair (waiting under its
// own deadline) or becomes the repair leader and runs the rungs itself.
// *ue is rebound whenever a re-issued attempt surfaces a new fault
// location. The round bound mirrors the old degrade backstop: every
// unproductive round retires at least one way somewhere on the bank.
func (e *Engine) runLadder(ctx context.Context, start time.Time, ue **pcache.UncorrectableError, attempt func() error) error {
	// again re-issues the access; ok means done, a non-nil herr is a
	// hard (non-DUE) failure; otherwise *ue is rebound to the new fault.
	again := func() (ok bool, herr error) {
		err2 := attempt()
		if err2 == nil {
			return true, nil
		}
		var u2 *pcache.UncorrectableError
		if !errors.As(err2, &u2) {
			return false, err2
		}
		*ue = u2
		return false, nil
	}

	maxRounds := e.cache.Config().Ways + 2
	for round := 0; round < maxRounds; round++ {
		if cerr := ctx.Err(); cerr != nil {
			e.deadlineAborts.Inc()
			return fmt.Errorf("resilience: ladder abandoned before recovery: %w", cerr)
		}
		bank := e.cache.BankOf((*ue).Set)
		fl, leader := e.joinFlight(bank, *ue, start)
		if !leader {
			// Coalesce: wait for the bank's repair under our deadline,
			// then re-issue against the repaired arrays.
			e.coalesced.Inc()
			select {
			case <-fl.done:
			case <-ctx.Done():
				e.deadlineAborts.Inc()
				return e.progressErr(fl, ctx.Err())
			}
			ok, herr := again()
			if herr != nil {
				return herr
			}
			if ok {
				return nil
			}
			continue
		}
		done, lerr := e.lead(ctx, fl, ue, again)
		if done {
			return lerr
		}
	}
	e.exhausted.Inc()
	return &pcache.UncorrectableError{Array: (*ue).Array, Set: (*ue).Set, Way: (*ue).Way}
}

// rungOutcome classifies how the recovery rungs (1–3) ended.
type rungOutcome int

const (
	outcomeRescued     rungOutcome = iota // a rung rescued the access
	outcomeFailed                         // rungs exhausted, access still faults
	outcomeForced                         // the repair budget ran out: force took over
	outcomeCallerAbort                    // the leader's caller ran out of budget
)

// lead runs one repair as its leader: breaker admission, the recovery
// rungs, then the degrade backstop. done=false means the repair budget
// ran out, force took the repair over, and the (re-issued) access still
// faults — the caller should start a fresh round.
func (e *Engine) lead(ctx context.Context, fl *flight, ue **pcache.UncorrectableError, again func() (bool, error)) (done bool, err error) {
	// The caller's cancellation propagates into the flight context so a
	// rung blocked in a stall releases at the deadline, not after it.
	stop := context.AfterFunc(ctx, fl.cancel)
	defer stop()
	defer e.finishFlight(fl)

	// Single-flight serialises repairs per bank, so Admit/Record pairs
	// never interleave for one bank in practice; the breaker is still
	// safe on its own.
	br := e.breakers[fl.bank]
	verdict := br.Admit()
	probe := verdict == BreakerProbe
	if verdict == BreakerShed {
		// Open breaker: the bank has stopped earning repair attempts.
		// Route straight to the degrade/bypass path — bounded work, and
		// the access still completes against backing.
		e.sheds.Inc()
		return true, e.degradeLoop(ctx, fl, ue, again)
	}

	outcome, herr := e.runRungs(fl, ue, again)
	if herr != nil {
		br.Release(probe)
		return true, herr
	}
	switch outcome {
	case outcomeRescued:
		br.Record(probe, true)
		return true, nil
	case outcomeCallerAbort:
		// Says nothing about the bank's health: release any probe slot
		// without recording an outcome. The flight resolves (deferred
		// finishFlight) so waiters re-issue and a fresh leader can pick
		// the repair up.
		br.Release(probe)
		e.deadlineAborts.Inc()
		return true, e.progressErr(fl, ctx.Err())
	case outcomeForced:
		// force already degraded the flight's way; re-issue and let a
		// fresh round handle any remaining damage.
		br.Record(probe, false)
		ok, herr := again()
		if herr != nil {
			return true, herr
		}
		if ok {
			return true, nil
		}
		return false, nil
	default: // outcomeFailed
		br.Record(probe, false)
		return true, e.degradeLoop(ctx, fl, ue, again)
	}
}

// runRungs is the recovery rung sequence (retry, word, full-2D) with an
// interruption check at every rung boundary. A non-nil error is a hard
// (non-DUE) failure from the re-issued access.
func (e *Engine) runRungs(fl *flight, ue **pcache.UncorrectableError, again func() (bool, error)) (rungOutcome, error) {
	if e.testHookLeadStart != nil {
		e.testHookLeadStart(fl)
	}
	// interrupted classifies a cancelled flight context: force marks
	// forced before cancelling, the caller's deadline does not.
	interrupted := func() (rungOutcome, bool) {
		if fl.ctx.Err() == nil {
			return outcomeRescued, false
		}
		if fl.forced.Load() {
			return outcomeForced, true
		}
		return outcomeCallerAbort, true
	}

	// Rung 1: retry.
	fl.rung.Store(rungRetry)
	for i := 0; i < e.cfg.MaxRetries; i++ {
		if o, stop := interrupted(); stop {
			return o, nil
		}
		e.retries.Inc()
		ok, herr := again()
		if herr != nil {
			return outcomeFailed, herr
		}
		if ok {
			e.retryHits.Inc()
			return outcomeRescued, nil
		}
	}

	// Rung 2: targeted word-level recovery.
	if o, stop := interrupted(); stop {
		return o, nil
	}
	fl.rung.Store(rungWord)
	e.wordAttempts.Inc()
	if e.cache.RecoverWord((*ue).Array, (*ue).Set, (*ue).Way) {
		ok, herr := again()
		if herr != nil {
			return outcomeFailed, herr
		}
		if ok {
			e.wordHits.Inc()
			return outcomeRescued, nil
		}
	}

	// Rung 3: full 2D recovery over the bank — the rung that models the
	// paper's whole-bank sweep, so the chaos stall point sits here.
	if o, stop := interrupted(); stop {
		return o, nil
	}
	fl.rung.Store(rungFull)
	e.stall.Hit(fl.ctx)
	if o, stop := interrupted(); stop {
		return o, nil
	}
	e.fullAttempts.Inc()
	if e.cache.RecoverSetArrays((*ue).Set) {
		ok, herr := again()
		if herr != nil {
			return outcomeFailed, herr
		}
		if ok {
			e.fullHits.Inc()
			return outcomeRescued, nil
		}
	}
	return outcomeFailed, nil
}

// degradeLoop is rung 4: graceful degradation. Each pass retires the
// named way; once a whole set is retired its accesses bypass the
// arrays, so this terminates. The bound is a backstop against a
// pathological fault source that keeps naming fresh locations.
func (e *Engine) degradeLoop(ctx context.Context, fl *flight, ue **pcache.UncorrectableError, again func() (bool, error)) error {
	fl.rung.Store(rungDegrade)
	maxDegrades := e.cache.Config().Ways + 2
	for i := 0; i < maxDegrades; i++ {
		if ctx.Err() != nil {
			e.deadlineAborts.Inc()
			return e.progressErr(fl, ctx.Err())
		}
		e.Degrade((*ue).Set, (*ue).Way)
		ok, herr := again()
		if herr != nil {
			return herr
		}
		if ok {
			return nil
		}
	}
	e.exhausted.Inc()
	return &pcache.UncorrectableError{Array: (*ue).Array, Set: (*ue).Set, Way: (*ue).Way}
}

// Degrade is rung 4 as a direct entry point (the scrubber uses it for
// sweep victims): decommission the way, count lost dirty data, and try
// to remap it to a spare row.
func (e *Engine) Degrade(set, way int) (lostDirty bool) {
	lostDirty = e.cache.Decommission(set, way)
	e.decommissions.Inc()
	e.tryRemap(set, way)
	return lostDirty
}

// tryRemap consults the spare-row budget: the faulty data row backing
// (set, way) joins the accumulated fault list and a repair allocation
// runs over the way-row space; if the plan covers every fault, the way
// is remapped to a spare and returned to service. A way whose remap
// fails again stays retired — its spare is presumed bad.
func (e *Engine) tryRemap(set, way int) {
	if e.cfg.SpareRows <= 0 {
		return
	}
	cc := e.cache.Config()
	key := set*cc.Ways + way
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.remappedOnce[key] {
		return
	}
	faults := append(append([]redundancy.Fault{}, e.faultyRows...),
		redundancy.Fault{Row: key})
	plan, err := redundancy.Allocate(redundancy.Config{
		Rows:      cc.Sets * cc.Ways,
		Cols:      cc.LineBytes * 8,
		SpareRows: e.cfg.SpareRows,
	}, faults)
	if err != nil || !plan.Repairable {
		return // budget exhausted: the way stays retired
	}
	e.faultyRows = faults
	e.remappedOnce[key] = true
	e.cache.Reenable(set, way)
	e.remaps.Inc()
}

// Report is the health API: everything an operator needs to judge
// whether the cache is keeping up with its fault environment.
type Report struct {
	// Accesses is the total Read/Write traffic observed.
	Accesses uint64
	// DUEs counts detected-uncorrectable events that entered the
	// ladder; DUERate is DUEs per access.
	DUEs    uint64
	DUERate float64

	// Per-rung escalation counts: attempts and the accesses each rung
	// rescued.
	Retries, RetrySuccesses      uint64
	WordAttempts, WordRecoveries uint64
	FullAttempts, FullRecoveries uint64
	Decommissions                uint64
	Remaps                       uint64
	// Exhausted counts ladder runs that failed even after degradation
	// (zero in a healthy system).
	Exhausted uint64

	// DirtyLinesLost counts decommissions that discarded unflushed
	// dirty data — the accounted data-loss events.
	DirtyLinesLost uint64

	// DisabledWays/TotalWays give the decommissioned capacity;
	// CapacityLostPct is the same as a percentage.
	DisabledWays, TotalWays int
	CapacityLostPct         float64

	// MTTR is the mean time from DUE detection to ladder completion.
	MTTR time.Duration

	// Bounded-latency activity: requests coalesced onto in-flight
	// repairs, breaker trips and sheds, stuck repairs forced over at
	// their RepairBudget, ladder runs abandoned at a caller's deadline,
	// and how many banks sit behind an open breaker right now.
	CoalescedWaits uint64
	BreakerTrips   uint64
	BreakerSheds   uint64
	WatchdogFires  uint64
	DeadlineAborts uint64
	OpenBreakers   int64

	// Scrubber activity (zero if no scrubber is attached).
	ScrubPasses, ScrubBackoffs, ScrubVictims uint64

	// Cache is the raw cache counter snapshot.
	Cache pcache.Stats
}

// Report snapshots the engine's health from one coherent metrics
// snapshot: all cross-counter invariants (rung successes ≤ attempts,
// remaps ≤ decommissions, exhausted ≤ DUEs) hold even while ladders,
// scrub sweeps, and traffic run concurrently.
func (e *Engine) Report() Report {
	cc := e.cache.Config()
	// Snapshot the engine counters BEFORE the cache counters: every DUE
	// is preceded by the access that tripped it, so this order keeps
	// DUERate ≤ 1 without a cross-source clamp.
	snap := e.metrics.Snapshot()
	st := e.cache.Stats()
	total := cc.Sets * cc.Ways
	disabled := e.cache.DisabledWays()
	lat := snap.Histogram(metricLadderSeconds)
	r := Report{
		Accesses:        st.Accesses,
		DUEs:            snap.Counter(metricDUEs),
		Retries:         snap.Counter(metricRetries),
		RetrySuccesses:  snap.Counter(metricRetryHits),
		WordAttempts:    snap.Counter(metricWordAttempts),
		WordRecoveries:  snap.Counter(metricWordHits),
		FullAttempts:    snap.Counter(metricFullAttempts),
		FullRecoveries:  snap.Counter(metricFullHits),
		Decommissions:   snap.Counter(metricDecommissions),
		Remaps:          snap.Counter(metricRemaps),
		Exhausted:       snap.Counter(metricExhausted),
		ScrubPasses:     snap.Counter(metricScrubPasses),
		ScrubBackoffs:   snap.Counter(metricScrubBackoffs),
		ScrubVictims:    snap.Counter(metricScrubVictims),
		CoalescedWaits:  snap.Counter(metricCoalesced),
		BreakerTrips:    snap.Counter(metricBreakerTrips),
		BreakerSheds:    snap.Counter(metricSheds),
		WatchdogFires:   snap.Counter(metricWatchdogFires),
		DeadlineAborts:  snap.Counter(metricDeadlineAborts),
		OpenBreakers:    snap.Gauge(metricBreakersOpen),
		DirtyLinesLost:  st.DirtyLinesLost,
		DisabledWays:    disabled,
		TotalWays:       total,
		CapacityLostPct: 100 * float64(disabled) / float64(total),
		MTTR:            lat.Mean(),
		Cache:           st,
	}
	if r.Accesses > 0 {
		r.DUERate = float64(r.DUEs) / float64(r.Accesses)
	}
	return r
}
