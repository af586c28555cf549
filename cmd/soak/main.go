// Soak runs the online resilience engine under fire: N client
// goroutines read and write through a ShardedCache (one shard by
// default, the store cachenetd serves) while a continuous Poisson
// fault storm upsets the protected arrays and each shard's
// traffic-aware background scrubber sweeps them, for a bounded
// duration. Every client checks its reads through its own
// replay.Shadow, the loss-epoch oracle the replayer runs: a mismatch
// is legitimate only if the set's loss epoch advanced (a reported DUE
// led to a repair or decommission) since the value was written —
// otherwise it is SILENT corruption and the run fails. On success each
// shard's health report is printed and the process exits 0.
//
// The storm flips at most one bit per currently-clean word per event —
// within the horizontal code's guaranteed detection — so every
// corruption is detectable; whether it is *correctable* is up to the
// 2D code, and the escalation ladder absorbs the remainder. This keeps
// "zero silent corruptions" a hard invariant rather than a statistical
// hope.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twodcache"
	"twodcache/internal/fault"
	"twodcache/internal/replay"
)

// replayMain deterministically re-executes a recorded (or shrunk)
// trace single-threaded and applies the soak's pass/fail rules to the
// replayed taxonomy. Traces declaring "expect silent" are harness
// self-validation traces and must go silent; every other trace must
// not.
func replayMain(path string) int {
	tr, err := replay.ParseFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 2
	}
	res, err := replay.Run(tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak: replay:", err)
		return 2
	}
	replay.WriteSummary(os.Stdout, os.Stderr, len(tr.Events), res)
	if tr.ExpectSilent {
		if res.Silent == 0 {
			fmt.Println("soak: FAIL — self-validation trace did not go silent")
			return 1
		}
		fmt.Println("soak: PASS — self-validation trace classified silent, as declared")
		return 0
	}
	if res.Silent > 0 {
		fmt.Println("soak: FAIL — silent corruption detected")
		return 1
	}
	fmt.Println("soak: PASS — every mismatch accounted for by a reported DUE/decommission")
	return 0
}

func main() {
	var (
		duration      = flag.Duration("duration", 2*time.Second, "soak duration")
		clients       = flag.Int("clients", 4, "concurrent reader/writer goroutines")
		sets          = flag.Int("sets", 64, "cache sets")
		ways          = flag.Int("ways", 4, "cache ways")
		banks         = flag.Int("banks", 8, "independently locked banks")
		shards        = flag.Int("shards", 1, "independent storage shards striping the line space (power of two; per-shard geometry is -sets/-ways/-banks)")
		lineBytes     = flag.Int("line", 64, "line size in bytes")
		secded        = flag.Bool("secded", false, "SECDED horizontal code instead of EDC8")
		spares        = flag.Int("spares", 8, "spare-row budget for remapping")
		faultInterval = flag.Duration("fault-interval", 500*time.Microsecond, "mean time between fault events")
		scrubInterval = flag.Duration("scrub-interval", 2*time.Millisecond, "pause between scrub sweeps")
		highRate      = flag.Float64("scrub-high-rate", 200_000, "accesses/sec above which the scrubber backs off")
		seed          = flag.Int64("seed", 1, "random seed")
		statsEvery    = flag.Duration("stats-interval", 500*time.Millisecond, "period of the live stats line (0 disables)")
		httpAddr      = flag.String("http", "", "serve expvar (/debug/vars) and Prometheus text (/metrics) on this address")
		recordPath    = flag.String("record", "", "record the run's event trace to this file (order is near-exact with -banks 1, best-effort otherwise; needs -shards 1 and no -p99-budget, -chaos-stall-recovery or -selftest-corrupt-backing)")
		replayPath    = flag.String("replay", "", "deterministically replay a recorded or shrunk trace instead of running live (load/fault flags are ignored)")
		selftestPoke  = flag.Bool("selftest-corrupt-backing", false, "harness self-validation: continuously corrupt the backing store behind the cache's back; the run MUST then FAIL with silent corruption (run with the storm slowed so no loss epoch moves)")
		p99Budget     = flag.Duration("p99-budget", 0, "SLO mode: every read carries this deadline, and the run FAILS (exit 3) unless 99% of reads complete within it")
		repairBudget  = flag.Duration("repair-budget", 50*time.Millisecond, "force-escalate a repair still running this long after its DUE (set in SLO/chaos modes only)")
		chaosStall    = flag.Duration("chaos-stall-recovery", 0, "chaos: wedge every full-2D recovery rung for this long — -repair-budget must force-escalate instead of hanging")
	)
	flag.Parse()
	if *replayPath != "" {
		os.Exit(replayMain(*replayPath))
	}
	if *clients < 1 {
		fmt.Fprintln(os.Stderr, "soak: need at least one client")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "soak: shards %d must be at least 1\n", *shards)
		os.Exit(2)
	}
	// A recording must replay the run it recorded, so -record rejects
	// what the replayer cannot reproduce: N engines interleaving
	// independently, read deadlines (a live abort repairs a set the
	// replay leaves alone), the wall-clock repair budget that -p99-budget
	// and -chaos-stall-recovery set (its forced degradations are not
	// recorded), and backing pokes (recorded as no event).
	if *recordPath != "" && (*shards > 1 || *p99Budget > 0 || *chaosStall > 0 || *selftestPoke) {
		fmt.Fprintln(os.Stderr, "soak: -record needs -shards 1 and no -p99-budget, -chaos-stall-recovery or -selftest-corrupt-backing: its replay would not reproduce the run")
		os.Exit(2)
	}

	// Chaos mode: arm a stall point inside the full-2D rung. Every
	// recovery that reaches it wedges for the armed duration, and only
	// the repair budget's force-escalation keeps the run from hanging.
	var stall *fault.Stall
	if *chaosStall > 0 {
		stall = new(fault.Stall)
		stall.Arm(*chaosStall)
	}

	backing := twodcache.NewMemoryBacking(*lineBytes)
	reg := twodcache.NewMetricsRegistry()
	ccfg := twodcache.ProtectedCacheConfig{
		Sets: *sets, Ways: *ways, LineBytes: *lineBytes,
		SECDEDHorizontal: *secded, Banks: *banks,
	}
	rcfg := twodcache.ResilienceConfig{
		SpareRows: *spares, Metrics: reg, RecoveryStall: stall,
	}
	if *p99Budget > 0 || *chaosStall > 0 {
		rcfg.RepairBudget = *repairBudget
	}

	// The store under test is the sharded router cachenetd serves (one
	// shard by default). Its scrubbers run through Start/Stop; a
	// recorded run leaves them out and sweeps shard 0 bank by bank
	// below, so every sweep lands in the trace.
	scfg := twodcache.ShardedCacheConfig{Shards: *shards, Cache: ccfg, Resilience: rcfg}
	if *recordPath == "" {
		scfg.Scrubber = &twodcache.ScrubberConfig{Interval: *scrubInterval, HighRate: *highRate}
	}
	st, err := twodcache.NewShardedCache(scfg, backing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(2)
	}
	st.Start()

	// SLO mode records every read's end-to-end latency into a histogram
	// whose bucket bounds include the budget itself, so the pass/fail
	// count (CountLE) is EXACT — never interpolated.
	var readLat *twodcache.LatencyHistogram
	if *p99Budget > 0 {
		readLat = reg.Histogram("soak_read_seconds",
			"end-to-end client read latency (SLO mode)", sloBounds(*p99Budget)...)
	}

	// Optional trace recording for offline deterministic replay
	// (-replay) and shrinking (cmd/tracehunt): the replayer rebuilds this
	// 1-shard store and drives it through the same Shadow. Events are
	// appended as they reach the recorder. With a single bank that is
	// close to the bank-lock commit order, but client ops and scrub
	// sweeps are recorded before they take the lock, so a replay can
	// drift a few accounted losses from the live run; with several banks
	// the interleaving is best-effort. Geometry defaults (VerticalGroups,
	// MaxRetries) mirror the engine's.
	var rec *replay.Recorder
	if *recordPath != "" {
		rec = replay.NewRecorder(replay.Config{
			Sets: *sets, Ways: *ways, LineBytes: *lineBytes, Banks: *banks,
			VerticalGroups: 32, SECDED: *secded, SpareRows: *spares, MaxRetries: 1,
		})
	}

	// Serve the registry over expvar (/debug/vars) and Prometheus text
	// (/metrics) when asked, on an owned server that the drain shuts
	// down, so no accept loop outlives the report.
	stopHTTP := func() error { return nil }
	if *httpAddr != "" {
		bound, stop, err := reg.ServeMetrics(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak: http:", err)
			os.Exit(2)
		}
		stopHTTP = stop
		fmt.Printf("soak: serving /debug/vars and /metrics on %s\n", bound)
	}

	// The run ends at the deadline OR on SIGINT/SIGTERM: either way the
	// context is cancelled, the workers drain, and the final obs-backed
	// report below always prints.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		clientOps  atomic.Uint64
		wg         sync.WaitGroup
		scrubDone  = make(chan struct{})
		stormDone  = make(chan struct{})
		stormCount atomic.Uint64
	)

	// A recorded run's scrubber: sweeps run bank by bank so each one
	// lands in the trace (traffic-aware backoff is skipped — a recorded
	// run favours reproducibility over load shaping).
	go func() {
		defer close(scrubDone)
		if rec == nil {
			return
		}
		scrub := st.Shard(0).NewScrubber(twodcache.ScrubberConfig{})
		ticker := time.NewTicker(*scrubInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			for i := 0; i < st.Shard(0).Cache().NumBanks(); i++ {
				rec.Scrub(i)
				scrub.SweepBank(i)
			}
		}
	}()

	// Continuous Poisson fault storm. Each event strikes a uniformly
	// chosen (shard, bank) under its bank lock and only currently-clean
	// words (see package comment and store.Sharded.Strike).
	go func() {
		defer close(stormDone)
		storm := fault.NewStorm(fault.StormConfig{Seed: *seed, MeanInterval: *faultInterval})
		rng := rand.New(rand.NewSource(*seed + 7))
		// A recording keeps every attempted flip; replay re-applies the
		// same clean-word gate, so gating stays sound even after the
		// shrinker removes other events.
		var onFlip func(bank int, tags bool, row, col int)
		if rec != nil {
			onFlip = rec.Flip
		}
		storm.Run(ctx, func() {
			st.Strike(storm, rng, onFlip)
			stormCount.Add(1)
		})
	}()

	// Live stats line, straight off coherent registry snapshots:
	// store_* aggregates plus per-shard sums (every shard's metrics live
	// under its prefix).
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		if *statsEvery <= 0 {
			return
		}
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		start := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			s := reg.Snapshot()
			var dues, scrubs, victims uint64
			var disabled int64
			for i := 0; i < st.NumShards(); i++ {
				dues += s.Counter(fmt.Sprintf("shard%d_resilience_dues_total", i))
				scrubs += s.Counter(fmt.Sprintf("shard%d_scrub_passes_total", i))
				victims += s.Counter(fmt.Sprintf("shard%d_scrub_victims_total", i))
				disabled += s.Gauge(fmt.Sprintf("shard%d_pcache_disabled_ways", i))
			}
			fmt.Printf("soak: t=%5.1fs acc=%d hits=%d dues=%d scrubs=%d victims=%d disabled=%d faults=%d (%d shards)\n",
				time.Since(start).Seconds(),
				s.Counter("store_accesses_total"),
				s.Counter("store_hits_total"),
				dues, scrubs, victims, disabled,
				stormCount.Load(), st.NumShards())
		}
	}()

	// Clients: disjoint line ownership (line % clients == id), each with
	// its own Shadow. 4x the total sets: plenty of conflict misses.
	lines := uint64(4 * *sets * st.NumShards())

	// Self-validation of the oracle and the exit path: corrupt the
	// backing store behind the cache's back, which no reported DUE or
	// decommission can ever account for. Clean-evicted lines refill with
	// the corrupted bytes, so the run must detect SILENT corruption and
	// exit non-zero — if it does not, the oracle itself is broken.
	if *selftestPoke {
		go func() {
			ticker := time.NewTicker(10 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				for l := uint64(0); l < lines; l++ {
					la := l * uint64(*lineBytes)
					b := backing.ReadLine(la)
					for i := range b {
						b[i] ^= 0xFF
					}
					backing.WriteLine(la, b)
				}
			}
		}()
	}
	shadows := make([]*replay.Shadow, *clients)
	for id := range shadows {
		sh := replay.NewShadow(st, rec, id)
		shadows[id] = sh
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(100+id)))
			var owned []uint64
			for l := uint64(id); l < lines; l += uint64(*clients) {
				owned = append(owned, l)
			}
			// The shadow counts a failed op as reported; the engine
			// counts SLO mode's deadline aborts.
			for ctx.Err() == nil {
				clientOps.Add(1)
				l := owned[rng.Intn(len(owned))]
				addr := l*uint64(*lineBytes) + uint64(rng.Intn(*lineBytes))
				if rng.Intn(5) < 2 { // 40% writes
					sh.Write(addr, byte(rng.Intn(256)))
					continue
				}
				if *p99Budget <= 0 {
					sh.Read(context.Background(), addr)
					continue
				}
				// SLO mode: the read carries its own deadline and gives up
				// on an in-flight repair rather than riding it past budget.
				// Deliberately parented on Background, not the run context,
				// so shutdown does not masquerade as abort.
				rctx, rcancel := context.WithTimeout(context.Background(), *p99Budget)
				t0 := time.Now()
				sh.Read(rctx, addr)
				readLat.Observe(time.Since(t0))
				rcancel()
			}
			<-stormDone
			sh.Sweep()
		}(id)
	}

	wg.Wait()
	interrupted := ctx.Err() != nil && context.Cause(ctx) != context.DeadlineExceeded
	cancel()
	st.Stop()
	<-scrubDone
	<-stormDone
	<-statsDone
	if err := stopHTTP(); err != nil {
		fmt.Fprintln(os.Stderr, "soak: http shutdown:", err)
	}
	if err := st.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "soak: final flush:", err)
	}
	if rec != nil {
		// The replayer performs its own final shadow sweep, so the trace
		// ends with the last recorded event.
		if err := rec.SaveFile(*recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "soak: record:", err)
		} else {
			fmt.Printf("soak: recorded %d events to %s\n", len(rec.Trace().Events), *recordPath)
		}
	}

	if interrupted {
		fmt.Println("soak: interrupted — drained workers, printing final report")
	}
	fmt.Printf("soak: %v, %d clients, %d client ops, %d fault events\n",
		*duration, *clients, clientOps.Load(), stormCount.Load())
	var watchdogFires, deadlineAborts uint64
	for i := 0; i < st.NumShards(); i++ {
		r := st.Shard(i).Report()
		watchdogFires += r.WatchdogFires
		deadlineAborts += r.DeadlineAborts
		fmt.Printf("shard %d %s", i, r.String())
	}
	var accounted, reported, silent uint64
	for _, sh := range shadows {
		accounted, reported, silent = accounted+sh.Accounted, reported+sh.Reported, silent+sh.Silent
		for _, d := range sh.SilentDetails {
			fmt.Fprintln(os.Stderr, "soak: "+d)
		}
	}
	fmt.Printf("  accounting:  %d accounted losses, %d ladder-exhausted DUEs, %d SILENT corruptions\n",
		accounted, reported, silent)
	if stall != nil {
		fmt.Printf("  chaos:       full-2D stall armed at %v, engaged %d times, %d force-escalations\n",
			*chaosStall, stall.Fired(), watchdogFires)
	}

	// Corruption dominates every other verdict: a run that lies about
	// data MUST exit 1 even if it also blew its latency budget.
	if silent > 0 {
		fmt.Println("soak: FAIL — silent corruption detected")
		os.Exit(1)
	}
	if *p99Budget > 0 {
		h := reg.Snapshot().Histogram("soak_read_seconds")
		within, exact := h.CountLE(*p99Budget)
		mark := "="
		if !exact {
			mark = "<=" // cannot happen: the budget is a bucket bound
		}
		fmt.Printf("soak: slo: %d/%d reads (p99%s%v) within budget %v, %d deadline aborts\n",
			within, h.Count, mark, h.Quantile(0.99).Round(time.Microsecond), *p99Budget, deadlineAborts)
		if h.Count > 0 && float64(within) < 0.99*float64(h.Count) {
			fmt.Println("soak: FAIL — p99 read latency over budget")
			os.Exit(3)
		}
	}
	fmt.Println("soak: PASS — every mismatch accounted for by a reported DUE/decommission")
}

// sloBounds builds latency histogram bounds bracketing the budget, with
// the budget itself as an exact bound so CountLE(budget) never has to
// interpolate across a bucket.
func sloBounds(budget time.Duration) []time.Duration {
	var bs []time.Duration
	add := func(d time.Duration) {
		if d <= 0 {
			return
		}
		for _, x := range bs {
			if x == d {
				return
			}
		}
		bs = append(bs, d)
	}
	for _, div := range []int64{16, 8, 4, 2} {
		add(budget / time.Duration(div))
	}
	add(budget)
	for _, mul := range []int64{2, 4, 8, 16, 64} {
		add(budget * time.Duration(mul))
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return bs
}
