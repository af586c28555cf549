// Cacheload is a closed-loop load generator for cachenetd. It opens N
// connections with P pipelined worker goroutines each, drives a mixed
// read/write workload of fixed-size frames (one op each by default)
// against a remote store, and — unless verification is off — checks
// every read against a private shadow model using the loss-epoch
// protocol over the EPOCH opcode: a mismatch is legitimate only if the
// owning set's loss epoch advanced since the value was written;
// otherwise it is SILENT corruption and the run fails with exit 1.
//
// Workers own disjoint line ranges, so the shadow needs no cross-worker
// coordination and every mismatch is attributable. On completion (or
// SIGINT/SIGTERM) the run reports throughput, read-latency percentiles,
// and the corruption taxonomy, mirroring cmd/soak's accounting over the
// wire.
//
// With -endpoints a,b,c the generator drives a replicated ClusterClient
// instead of one connection: hedged reads, failover retries, write
// fan-out with read-repair. The shadow protocol is unchanged — the
// cluster epoch is the max over reachable replicas — so killing and
// restarting a replica mid-run must produce zero silent corruption, or
// the run exits 1. -selftest-skew-writes N arms the cluster's injected
// replication bug (every Nth write silently skips one replica) to prove
// the verifier would catch real divergence.
//
// Exit codes: 0 for a clean run, 1 for silent corruption (it takes
// precedence), and 2 when the generator could not drive its load: bad
// flags, a failed dial or EPOCH probe, or a call-level error other than
// a deadline that stopped a worker (a lost connection, a frame the
// server refused), printed on stderr with the worker's number.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twodcache"
)

// storeClient is the op surface shared by a NetClient and a
// ClusterClient — the generator's worker loop drives either. Every
// frame is a batch frame that carries the ctx deadline, so -batch and
// -deadline compose.
type storeClient interface {
	ReadBatchCtx(ctx context.Context, ops []twodcache.BatchReadOp) (failed int, err error)
	WriteBatchCtx(ctx context.Context, ops []twodcache.BatchWriteOp) (failed int, err error)
	Epoch(addr uint64) (uint64, error)
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7420", "cachenetd address")
		conns     = flag.Int("conns", 2, "client connections")
		pipeline  = flag.Int("pipeline", 4, "pipelined worker goroutines per connection")
		duration  = flag.Duration("duration", 2*time.Second, "run length")
		lines     = flag.Int("lines", 4096, "distinct lines in the working set")
		lineBytes = flag.Int("line", 64, "line size in bytes (must match the server)")
		writeFrac = flag.Float64("write-frac", 0.3, "fraction of ops that are writes")
		batch     = flag.Int("batch", 0, "ops per frame (0 and 1 both send one op per frame)")
		deadline  = flag.Duration("deadline", 0, "per-frame deadline (0 = none); it bounds each whole frame")
		verify    = flag.Bool("verify", true, "shadow-check reads via the loss-epoch protocol (needs the server's EPOCH oracle)")
		seed      = flag.Int64("seed", 1, "random seed")
		endpoints = flag.String("endpoints", "", "comma-separated replica addresses: drive a replicated cluster client instead of -addr")
		hedge     = flag.Bool("hedge", true, "hedged reads (cluster mode only)")
		skewEvery = flag.Int("selftest-skew-writes", 0, "arm the cluster's injected replication bug: every Nth write silently skips one replica (must surface as silent corruption)")
	)
	flag.Parse()
	workers := *conns * *pipeline
	if *conns < 1 || *pipeline < 1 || *lines < workers {
		fmt.Fprintln(os.Stderr, "cacheload: need conns>=1, pipeline>=1, lines>=conns*pipeline")
		os.Exit(2)
	}

	// clientFor hands worker w its client; both single-endpoint and
	// cluster clients carry the full surface, batch frames included.
	var (
		clientFor  func(w int) storeClient
		cluster    *twodcache.ClusterClient
		clusterReg = twodcache.NewMetricsRegistry()
	)
	if *endpoints != "" {
		eps := strings.Split(*endpoints, ",")
		cc, err := twodcache.DialCluster(twodcache.ClusterConfig{
			Endpoints: eps,
			Seed:      *seed,
			// Full-line puts of self-contained values: re-applying one is
			// harmless, so the cluster may retry through ambiguity.
			IdempotentWrites:  true,
			DisableHedging:    !*hedge,
			Metrics:           clusterReg,
			SelftestSkewEvery: *skewEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cacheload:", err)
			os.Exit(2)
		}
		defer cc.Close()
		cluster = cc
		clientFor = func(int) storeClient { return cc }
	} else {
		if *skewEvery > 0 {
			fmt.Fprintln(os.Stderr, "cacheload: -selftest-skew-writes needs -endpoints (it is a replication bug)")
			os.Exit(2)
		}
		clients := make([]*twodcache.NetClient, *conns)
		for i := range clients {
			c, err := twodcache.DialNet(*addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cacheload:", err)
				os.Exit(2)
			}
			defer c.Close()
			clients[i] = c
		}
		clientFor = func(w int) storeClient { return clients[w / *pipeline] }
	}

	// The loss-epoch oracle must be present when verifying.
	if *verify {
		if _, err := clientFor(0).Epoch(0); err != nil {
			if errors.Is(err, twodcache.ErrNetUnsupported) {
				fmt.Fprintln(os.Stderr, "cacheload: server has no EPOCH oracle; rerun with -verify=false or fix the server")
				os.Exit(2)
			}
			fmt.Fprintln(os.Stderr, "cacheload: epoch probe:", err)
			os.Exit(2)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		ops       atomic.Uint64 // completed ops (each batch op counts)
		reads     atomic.Uint64
		writes    atomic.Uint64
		reported  atomic.Uint64 // ops that surfaced a DUE/bounded abort
		accounted atomic.Uint64 // mismatches explained by a loss-epoch advance
		silent    atomic.Uint64 // unaccounted mismatches: must stay zero
		bytesIO   atomic.Uint64
		wg        sync.WaitGroup
		stopOnce  sync.Once
		stopErr   error // the first call-level error that ended a worker
	)

	// shadowLine is one verified line: the value acked by the server and
	// the owning set's loss epoch sampled BEFORE the write was issued.
	// Sampling before is conservative in the right direction: an epoch
	// advance during the write window can only turn a real corruption
	// into "accounted", never the reverse. data is a stable per-line
	// buffer (written by copy, never re-allocated), so the steady-state
	// generator allocates nothing per op.
	type shadowLine struct {
		data  []byte
		valid bool
		epoch uint64
	}

	// readLat is the caller-observed latency of one read call — one
	// frame of -batch ops — with queueing, hedging, retries, and failover
	// included: the number the hedged vs unhedged comparison in
	// scripts/bench.sh is about.
	readLat := clusterReg.Histogram("load_read_latency", "caller-observed read latency")

	// fatalClientErr reports errors that mean the generator's transport
	// is gone for good. In cluster mode per-replica transport loss is
	// routine (failover handles it); only a closed cluster ends the run.
	fatalClientErr := func(err error) bool {
		if cluster != nil {
			return errors.Is(err, twodcache.ErrClusterClosed)
		}
		return errors.Is(err, twodcache.ErrNetClosed)
	}

	linesPer := *lines / workers
	var memBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clientFor(w)
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			base := uint64(w*linesPer) * uint64(*lineBytes)
			addrOf := func(i int) uint64 { return base + uint64(i)*uint64(*lineBytes) }
			shadow := make([]shadowLine, linesPer)

			// verifyRead classifies one read outcome against the shadow.
			verifyRead := func(li int, got []byte, err error) {
				if err != nil {
					reported.Add(1)
					shadow[li].valid = false // contents now unknown
					return
				}
				if !*verify || !shadow[li].valid {
					return
				}
				if bytes.Equal(got, shadow[li].data) {
					return
				}
				now, eerr := cl.Epoch(addrOf(li))
				if eerr == nil && now > shadow[li].epoch {
					accounted.Add(1)
					shadow[li].valid = false
					return
				}
				silent.Add(1)
				fmt.Fprintf(os.Stderr, "cacheload: SILENT corruption at %#x (epoch %d -> %d, %v)\n",
					addrOf(li), shadow[li].epoch, now, eerr)
			}
			// noteWrite installs an acked write into the shadow by copy,
			// so the caller's buffer is free for reuse next iteration.
			noteWrite := func(li int, d []byte, epoch uint64) {
				if shadow[li].data == nil {
					shadow[li].data = make([]byte, len(d))
				}
				copy(shadow[li].data, d)
				shadow[li].valid = true
				shadow[li].epoch = epoch
			}
			// preWrite samples the epoch a write's shadow entry will
			// carry; on epoch failure verification of that line pauses.
			preWrite := func(li int) (uint64, bool) {
				if !*verify {
					return 0, true
				}
				e, err := cl.Epoch(addrOf(li))
				if err != nil {
					shadow[li].valid = false
					return 0, false
				}
				return e, true
			}
			// Per-worker reusable scratch: op slices, index/epoch shadows,
			// and one line buffer per frame slot (write payloads and read
			// destinations both) — nothing below allocates per iteration.
			k := max(*batch, 1)
			wops := make([]twodcache.BatchWriteOp, k)
			rops := make([]twodcache.BatchReadOp, k)
			lis := make([]int, k)
			epochs := make([]uint64, k)
			oks := make([]bool, k)
			bufs := make([][]byte, k)
			for j := range bufs {
				bufs[j] = make([]byte, *lineBytes)
			}

			// batchAbort handles a call-level frame failure: a deadline is
			// a reported outcome for every op in the frame, not a
			// generator fatality. Any other error ends the worker, and
			// the first one fails the run.
			batchAbort := func(err error, isWrite bool) bool {
				if fatalClientErr(err) || !errors.Is(err, context.DeadlineExceeded) {
					stopOnce.Do(func() { stopErr = fmt.Errorf("worker %d: %w", w, err) })
					return false
				}
				for j := 0; j < k; j++ {
					if isWrite {
						writes.Add(1)
					} else {
						reads.Add(1)
					}
					ops.Add(1)
					reported.Add(1)
					shadow[lis[j]].valid = false
				}
				return true
			}

			for ctx.Err() == nil {
				opCtx := context.Background()
				var opCancel context.CancelFunc = func() {}
				if *deadline > 0 {
					opCtx, opCancel = context.WithTimeout(opCtx, *deadline)
				}

				// One frame of k ops, one amortised store call per
				// replica; the deadline bounds the frame.
				if rng.Float64() < *writeFrac {
					for j := 0; j < k; j++ {
						lis[j] = rng.Intn(linesPer)
						epochs[j], oks[j] = preWrite(lis[j])
						rng.Read(bufs[j])
						wops[j] = twodcache.BatchWriteOp{Addr: addrOf(lis[j]), Data: bufs[j]}
					}
					_, err := cl.WriteBatchCtx(opCtx, wops)
					opCancel()
					if err != nil {
						if batchAbort(err, true) {
							continue
						}
						return
					}
					for j := 0; j < k; j++ {
						writes.Add(1)
						ops.Add(1)
						bytesIO.Add(uint64(*lineBytes))
						if wops[j].Err != nil {
							reported.Add(1)
							shadow[lis[j]].valid = false
							continue
						}
						if oks[j] {
							noteWrite(lis[j], bufs[j], epochs[j])
						}
					}
				} else {
					for j := 0; j < k; j++ {
						lis[j] = rng.Intn(linesPer)
						rops[j] = twodcache.BatchReadOp{Addr: addrOf(lis[j]), Dst: bufs[j]}
					}
					t0 := time.Now()
					_, err := cl.ReadBatchCtx(opCtx, rops)
					readLat.Observe(time.Since(t0))
					opCancel()
					if err != nil {
						if batchAbort(err, false) {
							continue
						}
						return
					}
					for j := 0; j < k; j++ {
						reads.Add(1)
						ops.Add(1)
						bytesIO.Add(uint64(*lineBytes))
						verifyRead(lis[j], rops[j].Dst, rops[j].Err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	total := ops.Load()
	fmt.Printf("cacheload: %d ops in %v — %.0f ops/s, %.1f MiB/s (%d reads, %d writes)\n",
		total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(),
		float64(bytesIO.Load())/(1<<20)/elapsed.Seconds(),
		reads.Load(), writes.Load())
	fmt.Printf("  accounting: %d reported DUE/aborts, %d accounted losses, %d SILENT corruptions\n",
		reported.Load(), accounted.Load(), silent.Load())
	if total > 0 {
		// Whole-process deltas: the generator's own overhead rides along,
		// so this is an upper bound on the client stack's allocation rate.
		fmt.Printf("  client-side: %.1f allocs/op, %.0f alloc-bytes/op\n",
			float64(memAfter.Mallocs-memBefore.Mallocs)/float64(total),
			float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/float64(total))
	}
	snap := clusterReg.Snapshot()
	if h := snap.Histogram("load_read_latency"); h.Count > 0 {
		fmt.Printf("  read latency: p50 %v  p90 %v  p99 %v (%d samples)\n",
			h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.90).Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond), h.Count)
	}
	if cluster != nil {
		fmt.Printf("  cluster: %d hedges (%d won, %d wasted), %d retries, %d read-repairs, %d redials, %d no-replica errors\n",
			snap.Counter("cluster_hedges_total"), snap.Counter("cluster_hedge_wins_total"),
			snap.Counter("cluster_hedge_wasted_total"), snap.Counter("cluster_retries_total"),
			snap.Counter("cluster_read_repairs_total"), snap.Counter("cluster_redials_total"),
			snap.Counter("cluster_no_replica_errors_total"))
		for _, s := range cluster.Endpoints() {
			fmt.Printf("  endpoint %s\n", s)
		}
	}
	if stopErr != nil {
		fmt.Fprintln(os.Stderr, "cacheload: stopped early:", stopErr)
	}
	if silent.Load() > 0 {
		fmt.Println("cacheload: FAIL — silent corruption detected")
		os.Exit(1)
	}
	if stopErr != nil {
		os.Exit(2)
	}
	if *verify {
		fmt.Println("cacheload: PASS — every mismatch accounted for by a loss-epoch advance")
	}
}
