// Cachenetd serves a resilient (optionally sharded) cache store over
// TCP with the netsrv pipelined binary protocol. It is the
// production-shaped composition of the stack: N independent shards
// behind the batch-amortised router, per-shard scrubbers, optional
// continuous fault storm for torture runs, an owned /metrics endpoint,
// and a graceful drain on SIGINT/SIGTERM — stop accepting, finish
// in-flight requests, flush dirty lines, then exit 0.
//
// The EPOCH opcode is wired to the store's loss-epoch oracle, so a
// remote load generator (cmd/cacheload) can distinguish accounted data
// loss from silent corruption exactly like the local soak harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twodcache"
	"twodcache/internal/fault"
	"twodcache/internal/twod"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7420", "TCP listen address (use :0 for an ephemeral port; the chosen address is printed)")
		sets          = flag.Int("sets", 64, "cache sets per shard")
		ways          = flag.Int("ways", 4, "cache ways")
		banks         = flag.Int("banks", 8, "independently locked banks per shard")
		shards        = flag.Int("shards", 1, "independent storage shards (power of two)")
		lineBytes     = flag.Int("line", 64, "line size in bytes")
		secded        = flag.Bool("secded", false, "SECDED horizontal code instead of EDC8")
		spares        = flag.Int("spares", 8, "spare-row budget per shard")
		batch         = flag.Int("batch", 32, "per-connection accumulation threshold for pipelined single ops")
		respQueue     = flag.Int("resp-queue", 128, "per-connection response queue bound (frames)")
		maxConns      = flag.Int("max-conns", 0, "concurrent connection cap (0 = unlimited)")
		scrubInterval = flag.Duration("scrub-interval", 2*time.Millisecond, "pause between background scrub sweeps")
		faultInterval = flag.Duration("fault-interval", 0, "mean time between injected fault events (0 = no storm)")
		seed          = flag.Int64("seed", 1, "random seed for the fault storm")
		httpAddr      = flag.String("http", "", "serve expvar (/debug/vars) and Prometheus text (/metrics) on this address")
		duration      = flag.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget; connections still open after it are force-closed")

		// Network chaos: any non-zero probability fronts the listener
		// with a seed-deterministic ChaosProxy — the real server moves to
		// an ephemeral port and clients dial the chaos at -addr.
		chaosReset = flag.Float64("chaos-reset-prob", 0, "per-chunk probability of an abrupt connection reset")
		chaosTear  = flag.Float64("chaos-tear-prob", 0, "per-chunk probability of a torn frame (prefix then hangup)")
		chaosDrop  = flag.Float64("chaos-drop-prob", 0, "per-chunk probability of a black-hole stall then close")
		chaosDelay = flag.Float64("chaos-delay-prob", 0, "per-chunk probability of injected delay")
		chaosSeed  = flag.Int64("chaos-seed", 0, "chaos decision seed (0 = -seed)")
	)
	flag.Parse()

	backing := twodcache.NewMemoryBacking(*lineBytes)
	reg := twodcache.NewMetricsRegistry()
	scfg := twodcache.ShardedCacheConfig{
		Shards: *shards,
		Cache: twodcache.ProtectedCacheConfig{
			Sets: *sets, Ways: *ways, LineBytes: *lineBytes,
			SECDEDHorizontal: *secded, Banks: *banks,
		},
		Resilience: twodcache.ResilienceConfig{SpareRows: *spares, Metrics: reg},
		Scrubber:   &twodcache.ScrubberConfig{Interval: *scrubInterval},
	}
	st, err := twodcache.NewShardedCache(scfg, backing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachenetd:", err)
		os.Exit(2)
	}
	st.Start()
	defer st.Stop()

	// The loss-epoch oracle behind the EPOCH opcode: route the address
	// to its owning shard and read that set's epoch.
	epochOf := func(a uint64) uint64 {
		e, la := st.Locate(a)
		return e.Cache().LossEpoch(int((la / uint64(*lineBytes)) % uint64(*sets)))
	}
	srv, err := twodcache.NewNetServer(twodcache.NetServerConfig{
		Store:     st,
		BatchSize: *batch,
		RespQueue: *respQueue,
		MaxConns:  *maxConns,
		Metrics:   reg.WithPrefix("netsrv_"),
		EpochOf:   epochOf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachenetd:", err)
		os.Exit(2)
	}

	// With chaos enabled the advertised address belongs to the proxy and
	// the real server hides on an ephemeral loopback port behind it.
	chaosOn := *chaosReset+*chaosTear+*chaosDrop+*chaosDelay > 0
	listenAddr := *addr
	if chaosOn {
		listenAddr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachenetd:", err)
		os.Exit(2)
	}
	var proxy *twodcache.ChaosProxy
	if chaosOn {
		seedVal := *chaosSeed
		if seedVal == 0 {
			seedVal = *seed
		}
		proxy, err = twodcache.NewChaosProxy(twodcache.ChaosProxyConfig{
			Seed:      seedVal,
			Target:    l.Addr().String(),
			Addr:      *addr,
			ResetProb: *chaosReset, TearProb: *chaosTear,
			DropProb: *chaosDrop, DelayProb: *chaosDelay,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachenetd: chaos:", err)
			os.Exit(2)
		}
		fmt.Printf("cachenetd: chaos proxy on %s -> %s (seed %d, reset %.3g tear %.3g drop %.3g delay %.3g)\n",
			proxy.Addr(), l.Addr(), seedVal, *chaosReset, *chaosTear, *chaosDrop, *chaosDelay)
	}
	fmt.Printf("cachenetd: listening on %s (%d shard(s), %d sets x %d ways x %dB lines)\n",
		l.Addr(), *shards, *sets, *ways, *lineBytes)

	// Metrics endpoint: an owned server on a private mux, started with a
	// synchronous Listen so a bad -http address fails loudly at startup,
	// and shut down as part of the drain.
	var httpSrv *http.Server
	if *httpAddr != "" {
		reg.PublishExpvar("twodcache")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", http.DefaultServeMux)
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachenetd: http:", err)
			os.Exit(2)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(hl); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "cachenetd: http:", err)
			}
		}()
		fmt.Printf("cachenetd: serving /debug/vars and /metrics on %s\n", hl.Addr())
	}

	// Lifetime: a deadline (when asked), SIGINT, or SIGTERM ends the
	// serving phase and starts the drain.
	ctx := context.Background()
	var cancelDur context.CancelFunc
	if *duration > 0 {
		ctx, cancelDur = context.WithTimeout(ctx, *duration)
		defer cancelDur()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Optional continuous Poisson fault storm, one event at a time
	// against a uniformly chosen (shard, bank), clean-word gated under
	// the bank lock — the soak harness's torture regime, here so remote
	// clients can be the ones doing the verifying.
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		if *faultInterval <= 0 {
			return
		}
		storm := fault.NewStorm(fault.StormConfig{Seed: *seed, MeanInterval: *faultInterval})
		rng := rand.New(rand.NewSource(*seed + 7))
		banksPer := st.Shard(0).Cache().NumBanks()
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
				gi := rng.Intn(st.NumShards() * banksPer)
				c, bi := st.Shard(gi/banksPer).Cache(), gi%banksPer
				hitTags := rng.Intn(4) == 0
				c.WithBankLock(bi, func(data, tags *twod.Array) {
					a := data
					if hitTags {
						a = tags
					}
					p := storm.NextEvent(a.Rows(), a.RowBits())
					for _, fl := range p.Flips {
						fault.FlipIfClean(a, fl.Row, fl.Col)
					}
				})
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		// Listener died outside a drain: fatal.
		fmt.Fprintln(os.Stderr, "cachenetd: serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stopSignals() // a second signal now kills the process the default way

	fmt.Println("cachenetd: draining...")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	drainErr := srv.Shutdown(dctx)
	if proxy != nil {
		a, r, te, dr, de := proxy.Stats()
		proxy.Close()
		fmt.Printf("cachenetd: chaos stats — %d conns, %d resets, %d tears, %d drops, %d delays\n",
			a, r, te, dr, de)
	}
	if err := <-serveErr; err != nil {
		fmt.Fprintln(os.Stderr, "cachenetd: serve:", err)
		os.Exit(1)
	}
	<-stormDone
	if httpSrv != nil {
		hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
		httpSrv.Shutdown(hctx)
		hcancel()
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "cachenetd: drain:", drainErr)
		os.Exit(1)
	}

	s := st.Stats()
	fmt.Printf("cachenetd: drained clean — %d accesses (%d hits, %d misses), %d recovered, %d uncorrectable, %d dirty lines lost\n",
		s.Accesses, s.Hits, s.Misses, s.ErrorsRecovered, s.Uncorrectable, s.DirtyLinesLost)
}
