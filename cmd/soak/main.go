// Soak runs the online resilience engine under fire: N client
// goroutines read and write through a ShardedCache (one shard by
// default, the store cachenetd serves) while a continuous Poisson
// fault storm upsets the protected arrays and each shard's
// traffic-aware background scrubber sweeps them, for a bounded
// duration. Every client checks its reads against a private shadow
// model using the loss-epoch protocol: a mismatch is legitimate only
// if the set's loss epoch advanced (a reported DUE led to a repair or
// decommission) since the value was written — otherwise it is SILENT
// corruption and the run fails. On success each shard's health report
// is printed and the process exits 0.
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
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
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
	"twodcache/internal/twod"
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
	for _, d := range res.SilentDetails {
		fmt.Fprintln(os.Stderr, "soak: "+d)
	}
	fmt.Printf("soak: replayed %d events (%d client ops, %d flips applied, %d gated)\n",
		len(tr.Events), res.Ops, res.FlipsApplied, res.FlipsSkipped)
	fmt.Print(res.Report.String())
	fmt.Printf("  accounting:  %d accounted losses, %d ladder-exhausted DUEs, %d SILENT corruptions\n",
		res.Accounted, res.Reported, res.Silent)
	fmt.Printf("  state hash:  %016x\n", res.StateHash)
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
		recordPath    = flag.String("record", "", "record the run's event trace to this file (order is exact with -banks 1, best-effort otherwise)")
		replayPath    = flag.String("replay", "", "deterministically replay a recorded or shrunk trace instead of running live (load/fault flags are ignored)")
		selftestPoke  = flag.Bool("selftest-corrupt-backing", false, "harness self-validation: continuously corrupt the backing store behind the cache's back; the run MUST then FAIL with silent corruption (run with the storm slowed so no loss epoch moves)")
		p99Budget     = flag.Duration("p99-budget", 0, "SLO mode: every read carries this deadline, and the run FAILS (exit 3) unless 99% of reads complete within it")
		repairBudget  = flag.Duration("repair-budget", 50*time.Millisecond, "recovery watchdog force-escalates repairs older than this (watchdog runs in SLO/chaos modes)")
		chaosStall    = flag.Duration("chaos-stall-recovery", 0, "chaos: wedge every full-2D recovery rung for this long — the watchdog must force-escalate instead of hanging")
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
	if *shards > 1 && *recordPath != "" {
		// Trace recording leans on a single engine's bank-lock commit
		// order; N engines interleave independently, so a recorded
		// multi-shard run could not replay deterministically.
		fmt.Fprintln(os.Stderr, "soak: -record requires -shards 1")
		os.Exit(2)
	}

	// Chaos mode: arm a stall point inside the full-2D rung. Every
	// recovery that reaches it wedges for the armed duration, and only
	// the watchdog's force-escalation keeps the run from hanging.
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

	// The store under test is the sharded router cachenetd serves (one
	// shard by default). Its scrubbers and watchdogs run through
	// Start/Stop; a recorded run leaves the scrubbers out and sweeps
	// shard 0 bank by bank below, so every sweep lands in the trace.
	scfg := twodcache.ShardedCacheConfig{Shards: *shards, Cache: ccfg, Resilience: rcfg}
	if *recordPath == "" {
		scfg.Scrubber = &twodcache.ScrubberConfig{Interval: *scrubInterval, HighRate: *highRate}
	}
	if *p99Budget > 0 || *chaosStall > 0 {
		scfg.Watchdog = &twodcache.RecoveryWatchdogConfig{Budget: *repairBudget}
	}
	st, err := twodcache.NewShardedCache(scfg, backing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(2)
	}
	var engines []*twodcache.ResilientCache
	for i := 0; i < st.NumShards(); i++ {
		engines = append(engines, st.Shard(i))
	}
	st.Start()
	// The repair/loss-epoch oracle must talk to the shard that actually
	// holds the line, in that shard's local address space.
	repairAt := func(addr uint64) {
		e, la := st.Locate(addr)
		e.Cache().Repair(la)
	}
	epochOf := func(addr uint64) uint64 {
		e, la := st.Locate(addr)
		return e.Cache().LossEpoch(int((la / uint64(*lineBytes)) % uint64(*sets)))
	}

	// SLO mode records every read's end-to-end latency into a histogram
	// whose bucket bounds include the budget itself, so the pass/fail
	// count (CountLE) is EXACT — never interpolated.
	var readLat *twodcache.LatencyHistogram
	if *p99Budget > 0 {
		readLat = reg.Histogram("soak_read_seconds",
			"end-to-end client read latency (SLO mode)", sloBounds(*p99Budget)...)
	}

	// Optional trace recording for offline deterministic replay
	// (-replay) and shrinking (cmd/tracehunt). Events are appended in
	// completion order: with a single bank that matches the bank-lock
	// commit order, so the replayed run walks the same state sequence;
	// with several banks the recorded interleaving is best-effort.
	// Geometry defaults (VerticalGroups, MaxRetries) mirror the engine's.
	var rec *replay.Recorder
	if *recordPath != "" {
		rec = replay.NewRecorder(replay.Config{
			Sets: *sets, Ways: *ways, LineBytes: *lineBytes, Banks: *banks,
			VerticalGroups: 32, SECDED: *secded, SpareRows: *spares, MaxRetries: 1,
		})
	}

	// Serve the registry over expvar (/debug/vars) and Prometheus text
	// (/metrics) when asked. The registry snapshots on demand, so both
	// endpoints always return coherent, clamped values. The server is
	// owned — private mux, synchronous Listen so a bad address fails the
	// run at startup instead of silently soaking without metrics, and an
	// explicit Shutdown during the drain so no accept loop outlives the
	// report.
	var httpSrv *http.Server
	if *httpAddr != "" {
		reg.PublishExpvar("twodcache")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", http.DefaultServeMux)
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak: http:", err)
			os.Exit(2)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(hl); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "soak: http:", err)
			}
		}()
		fmt.Printf("soak: serving /debug/vars and /metrics on %s\n", hl.Addr())
	}

	// The run ends at the deadline OR on SIGINT/SIGTERM: either way the
	// context is cancelled, the workers drain, and the final obs-backed
	// report below always prints.
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		silent     atomic.Uint64 // UNACCOUNTED mismatches: must stay zero
		accounted  atomic.Uint64 // mismatches explained by a loss-epoch advance
		reported   atomic.Uint64 // DUEs surfaced to clients even after the ladder
		sloAborts  atomic.Uint64 // reads abandoned at their deadline (SLO mode)
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
		scrub := engines[0].NewScrubber(twodcache.ScrubberConfig{})
		ticker := time.NewTicker(*scrubInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			for i := 0; i < engines[0].Cache().NumBanks(); i++ {
				rec.Scrub(i)
				scrub.SweepBank(i)
			}
		}
	}()

	// Continuous Poisson fault storm. Each event lands under the bank
	// lock so it races traffic at event granularity, never mid-word,
	// and only strikes currently-clean words (see package comment).
	go func() {
		defer close(stormDone)
		storm := fault.NewStorm(fault.StormConfig{Seed: *seed, MeanInterval: *faultInterval})
		rng := rand.New(rand.NewSource(*seed + 7))
		// Every shard is its own protection domain: aim each event at a
		// uniformly chosen (shard, bank) pair so storms cover all of them.
		banksPer := engines[0].Cache().NumBanks()
		oneEvent := func() {
			gi := rng.Intn(len(engines) * banksPer)
			c, bi := engines[gi/banksPer].Cache(), gi%banksPer
			hitTags := rng.Intn(4) == 0
			c.WithBankLock(bi, func(data, tags *twod.Array) {
				a := data
				if hitTags {
					a = tags
				}
				p := storm.NextEvent(a.Rows(), a.RowBits())
				for _, fl := range p.Flips {
					if rec != nil {
						// Record the attempt; replay re-applies the same
						// clean-word gate below, so gating stays sound
						// even after the shrinker removes other events.
						rec.Flip(bi, hitTags, fl.Row, fl.Col)
					}
					fault.FlipIfClean(a, fl.Row, fl.Col)
				}
				stormCount.Add(1)
			})
		}
		// Sub-millisecond inter-arrival times are far below Go timer
		// granularity, so drive the Poisson process from a 1ms ticker
		// and drain every arrival that fell due within the tick.
		const tick = time.Millisecond
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		pending := storm.NextDelay()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			for pending -= tick; pending <= 0; pending += storm.NextDelay() {
				oneEvent()
			}
		}
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
			for i := range engines {
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
				stormCount.Load(), len(engines))
		}
	}()

	// Clients: disjoint line ownership (line % clients == id), private
	// shadow model, loss-epoch accounting. 4x the total sets: plenty of
	// conflict misses.
	lines := uint64(4 * *sets * len(engines))

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
	for id := 0; id < *clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(100+id)))
			shadow := map[uint64]byte{}
			wep := map[uint64]uint64{}
			var owned []uint64
			for l := uint64(id); l < lines; l += uint64(*clients) {
				owned = append(owned, l)
			}
			// Every op is a batch of one — the store's only data path.
			rop := []twodcache.BatchReadOp{{Dst: make([]byte, 1)}}
			wop := []twodcache.BatchWriteOp{{Data: make([]byte, 1)}}
			for ctx.Err() == nil {
				clientOps.Add(1)
				l := owned[rng.Intn(len(owned))]
				addr := l*uint64(*lineBytes) + uint64(rng.Intn(*lineBytes))
				if rng.Intn(5) < 2 { // 40% writes
					val := byte(rng.Intn(256))
					if rec != nil {
						rec.Write(id, addr, val)
					}
					// Capture the epoch BEFORE the write: a degrade racing
					// the write then shows an advance, never a stale record.
					e0 := epochOf(addr)
					wop[0].Addr, wop[0].Data[0] = addr, val
					if st.WriteBatch(wop); wop[0].Err != nil {
						reported.Add(1)
						repairAt(addr)
						delete(shadow, addr)
						continue
					}
					shadow[addr] = val
					wep[addr] = e0
					continue
				}
				want, tracked := shadow[addr]
				if rec != nil {
					rec.Read(id, addr)
				}
				rop[0].Addr = addr
				if *p99Budget > 0 {
					// SLO mode: the read carries its own deadline and gives
					// up on an in-flight repair rather than riding it past
					// budget. Deliberately parented on Background, not the
					// run context, so shutdown does not masquerade as abort.
					rctx, rcancel := context.WithTimeout(context.Background(), *p99Budget)
					t0 := time.Now()
					st.ReadBatchCtx(rctx, rop)
					readLat.Observe(time.Since(t0))
					rcancel()
					if errors.Is(rop[0].Err, twodcache.ErrRecoveryInProgress) {
						sloAborts.Add(1)
					}
				} else {
					st.ReadBatch(rop)
				}
				if rop[0].Err != nil {
					// The ladder itself gave up (or the deadline abandoned
					// it) — still a *reported* event, never silent. Repair
					// and drop the stale expectation.
					reported.Add(1)
					repairAt(addr)
					delete(shadow, addr)
					continue
				}
				got := rop[0].Dst[0]
				if tracked && got != want {
					if epochOf(addr) == wep[addr] {
						silent.Add(1)
						fmt.Fprintf(os.Stderr,
							"soak: SILENT corruption at %#x: got %d want %d (loss epoch unmoved)\n",
							addr, got, want)
					} else {
						accounted.Add(1)
					}
					// Either way the cache's view is now authoritative.
					e0 := epochOf(addr)
					shadow[addr] = got
					wep[addr] = e0
				}
			}

			// Final sweep: after the storm stops, every tracked byte must
			// still be explained.
			<-stormDone
			for addr, want := range shadow {
				rop[0].Addr = addr
				if st.ReadBatch(rop); rop[0].Err != nil {
					reported.Add(1)
					repairAt(addr)
					continue
				}
				if got := rop[0].Dst[0]; got != want {
					if epochOf(addr) == wep[addr] {
						silent.Add(1)
						fmt.Fprintf(os.Stderr,
							"soak: SILENT corruption at %#x on final sweep: got %d want %d\n",
							addr, got, want)
					} else {
						accounted.Add(1)
					}
				}
			}
		}(id)
	}

	wg.Wait()
	interrupted := ctx.Err() != nil && context.Cause(ctx) != context.DeadlineExceeded
	cancel()
	st.Stop()
	<-scrubDone
	<-stormDone
	<-statsDone
	if httpSrv != nil {
		hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
		if err := httpSrv.Shutdown(hctx); err != nil {
			fmt.Fprintln(os.Stderr, "soak: http shutdown:", err)
		}
		hcancel()
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
	var watchdogFires uint64
	for i, e := range engines {
		r := e.Report()
		watchdogFires += r.WatchdogFires
		fmt.Printf("shard %d %s", i, r.String())
	}
	fmt.Printf("  accounting:  %d accounted losses, %d ladder-exhausted DUEs, %d SILENT corruptions\n",
		accounted.Load(), reported.Load(), silent.Load())
	if stall != nil {
		fmt.Printf("  chaos:       full-2D stall armed at %v, engaged %d times, %d watchdog force-escalations\n",
			*chaosStall, stall.Fired(), watchdogFires)
	}

	// Corruption dominates every other verdict: a run that lies about
	// data MUST exit 1 even if it also blew its latency budget.
	if silent.Load() > 0 {
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
			within, h.Count, mark, h.Quantile(0.99).Round(time.Microsecond), *p99Budget, sloAborts.Load())
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
