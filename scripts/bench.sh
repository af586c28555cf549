#!/bin/sh
# bench.sh — the data-path benchmark suite, benchstat-compatible.
#
#   ./scripts/bench.sh                  # headline data-path benches, 5 runs
#   ./scripts/bench.sh -kernels         # per-code kernel micro-benches only
#   ./scripts/bench.sh -obs             # observability overhead micro-benches
#   ./scripts/bench.sh -shards          # shard-scaling + batch-vs-single,
#                                       # writes results/BENCH_shards.md
#   ./scripts/bench.sh -net             # loopback serving-layer throughput
#                                       # (cachenetd + cacheload), writes
#                                       # results/BENCH_net.md
#   ./scripts/bench.sh -netalloc        # loopback round-trip allocs/op,
#                                       # writes results/BENCH_netalloc.md
#   ./scripts/bench.sh -cluster         # hedged vs unhedged cluster reads,
#                                       # singles and 32-op batches, against
#                                       # one slow replica; writes
#                                       # results/BENCH_cluster.md
#   ./scripts/bench.sh -all             # every benchmark (incl. figure regen)
#   COUNT=10 ./scripts/bench.sh         # override run count
#
# Always passes -benchmem so allocation regressions show up next to the
# timing. Pipe two runs through benchstat to compare; the committed
# baselines live in results/BENCH_kernels.md and results/BENCH_obs.md.
set -eu
cd "$(dirname "$0")/.."

count=${COUNT:-5}
pattern='BenchmarkArrayWrite$|BenchmarkArrayReadClean$|BenchmarkEDC8Syndrome$|BenchmarkSECDEDDecode$|BenchmarkPCacheParallelRead$|BenchmarkPCacheParallelReadInto$|BenchmarkKernel|BenchmarkObs'
pkgs='. ./internal/obs/'
case "${1:-}" in
-kernels)
    pattern='BenchmarkKernel'
    pkgs='.'
    ;;
-obs)
    pattern='BenchmarkObs'
    pkgs='./internal/obs/'
    ;;
-shards)
    # The scaling curve needs the shard counts side by side under every
    # GOMAXPROCS, so this mode writes the report itself instead of
    # leaving raw benchstat input.
    out=results/BENCH_shards.md
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -bench 'BenchmarkShardedParallelRead|BenchmarkStoreReadBatch$|BenchmarkStoreSingleReads$' \
        -benchmem -cpu 1,2,4,8 -count "${COUNT:-1}" . | tee "$raw"
    {
        echo '# Sharded store scaling'
        echo
        echo 'Generated by `./scripts/bench.sh -shards`.'
        echo
        echo "- host cores: $(nproc) (GOMAXPROCS swept 1,2,4,8 via -cpu;"
        echo '  with fewer physical cores than GOMAXPROCS the curve shows'
        echo '  lock-domain and tag-scan amortisation only, not true'
        echo '  parallel speedup — re-run on a multi-core host for the'
        echo '  scheduling-limited numbers)'
        echo '- `BenchmarkShardedParallelRead/shards=N`: fixed 256-line'
        echo '  working set striped over N shards (per-shard geometry'
        echo '  fixed: 64 sets × 4 ways × 8 banks)'
        echo '- `BenchmarkStoreReadBatch` vs `BenchmarkStoreSingleReads`:'
        echo '  the same 64 ops (8 spans × 8 lines, 4 shards) as one'
        echo '  ReadBatch vs 64 single ReadInto calls'
        echo
        echo '```'
        grep -E '^(goos|goarch|pkg|cpu|Benchmark)' "$raw"
        echo '```'
    } >"$out"
    echo "bench.sh: wrote $out"
    exit 0
    ;;
-net)
    # Loopback serving-layer throughput: cacheload (closed loop, 2
    # conns x 4 workers, verification off for pure wire numbers)
    # against a live cachenetd, sweeping single-op frames vs batched
    # pipelines over 1 and 4 shards. Writes the report itself.
    out=results/BENCH_net.md
    dur=${DUR:-2s}
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/cachenetd" ./cmd/cachenetd
    go build -o "$tmp/cacheload" ./cmd/cacheload
    run_one() { # run_one <shards> <batch> -> cacheload summary line
        "$tmp/cachenetd" -addr 127.0.0.1:0 -shards "$1" >"$tmp/netd.out" 2>&1 &
        pid=$!
        addr=''
        for _ in $(seq 1 50); do
            addr=$(sed -n 's/^cachenetd: listening on \([^ ]*\).*/\1/p' "$tmp/netd.out")
            [ -n "$addr" ] && break
            sleep 0.1
        done
        if [ -z "$addr" ]; then
            echo "bench.sh: cachenetd never printed its address" >&2
            kill "$pid" 2>/dev/null
            exit 1
        fi
        "$tmp/cacheload" -addr "$addr" -duration "$dur" -conns 2 -pipeline 4 \
            -batch "$2" -verify=false | head -1
        kill -TERM "$pid"
        wait "$pid" || { echo "bench.sh: cachenetd drain failed" >&2; exit 1; }
    }
    s1_single=$(run_one 1 0)
    s1_batch=$(run_one 1 32)
    s4_single=$(run_one 4 0)
    s4_batch=$(run_one 4 32)
    {
        echo '# Serving-layer loopback throughput'
        echo
        echo 'Generated by `./scripts/bench.sh -net`.'
        echo
        echo "- host cores: $(nproc); loopback TCP; ${dur} per cell"
        echo '- closed loop: 2 connections x 4 pipelined workers, 64B'
        echo '  lines, 30% writes, verification off'
        echo '- single-op: one request frame per op (server still'
        echo '  re-groups the pipeline onto the batch path)'
        echo '- batched: 32 ops per BATCH_READ/BATCH_WRITE frame — one'
        echo '  round trip and one amortised store call per 32 ops'
        echo
        echo '| shards | mode | result |'
        echo '|---|---|---|'
        echo "| 1 | single-op | ${s1_single#cacheload: } |"
        echo "| 1 | batched x32 | ${s1_batch#cacheload: } |"
        echo "| 4 | single-op | ${s4_single#cacheload: } |"
        echo "| 4 | batched x32 | ${s4_batch#cacheload: } |"
    } >"$out"
    echo "bench.sh: wrote $out"
    exit 0
    ;;
-netalloc)
    # Per-round-trip allocation accounting for the pooled wire path:
    # the BenchmarkNet* loopback benches count the process's global
    # mallocs, so allocs/op covers both the client encoding the request
    # and the server parsing, serving, and answering it. The "before"
    # column is the committed pre-pooling baseline (per-call frame
    # assembly, fresh op slices and Dst buffers per batch, unpooled
    # response frames), measured with the same benches at the commit
    # that introduced them.
    out=results/BENCH_netalloc.md
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -bench 'BenchmarkNet' -benchmem -count "${COUNT:-3}" \
        ./internal/netsrv/ | tee "$raw"
    allocs_of() { # $1 = benchmark name -> min allocs/op across runs
        awk -v b="$1" '$1 == b || $1 ~ "^"b"-" { if (min == "" || $7+0 < min) min = $7+0 } END { print (min == "" ? "?" : min) }' "$raw"
    }
    {
        echo '# Wire-path allocation accounting'
        echo
        echo 'Generated by `./scripts/bench.sh -netalloc`.'
        echo
        echo "- host cores: $(nproc); loopback TCP, 1-shard store, 64B lines"
        echo '- allocs/op and B/op are process-global: client + server'
        echo '  sides of one round trip combined'
        echo '- before = pre-pooling baseline (per-call frame assembly,'
        echo '  fresh per-op buffers, unpooled response frames), measured'
        echo '  with these same benches before the pooled batch plane'
        echo '- after = minimum across runs (steady state, pools warm)'
        echo
        echo '| round trip | before (allocs/op) | after (allocs/op) |'
        echo '|---|---|---|'
        echo "| single READ | 15 | $(allocs_of BenchmarkNetSingleRead) |"
        echo "| single WRITE | 14 | $(allocs_of BenchmarkNetSingleWrite) |"
        echo "| BATCH_READ x32 | 50 | $(allocs_of BenchmarkNetBatchRead32) |"
        echo "| BATCH_WRITE x32 | 18 | $(allocs_of BenchmarkNetBatchWrite32) |"
        echo
        echo '```'
        grep -E '^(goos|goarch|pkg|cpu|Benchmark)' "$raw"
        echo '```'
    } >"$out"
    echo "bench.sh: wrote $out"
    exit 0
    ;;
-cluster)
    # Hedged vs unhedged tail latency against a replica set with one
    # slow member: three cachenetd replicas, one fronted by its chaos
    # proxy injecting 1-5ms delays on ~40% of chunks. cacheload drives
    # the replicated cluster client closed-loop both ways, with single
    # ops and with 32-op batches; the
    # caller-observed read-latency percentiles (hedging, retries, and
    # failover included) are the result. Writes the report itself.
    out=results/BENCH_cluster.md
    dur=${DUR:-4s}
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/cachenetd" ./cmd/cachenetd
    go build -o "$tmp/cacheload" ./cmd/cacheload
    addr_from() { # $1=outfile $2=sed extraction pattern
        for _ in $(seq 1 50); do
            a=$(sed -n "$2" "$1")
            [ -n "$a" ] && { echo "$a"; return 0; }
            sleep 0.1
        done
        echo "bench.sh: replica never printed its address ($1)" >&2
        return 1
    }
    "$tmp/cachenetd" -addr 127.0.0.1:0 >"$tmp/r1.out" 2>&1 &
    rpid1=$!
    "$tmp/cachenetd" -addr 127.0.0.1:0 >"$tmp/r2.out" 2>&1 &
    rpid2=$!
    "$tmp/cachenetd" -addr 127.0.0.1:0 -chaos-delay-prob 0.4 -chaos-seed 42 >"$tmp/r3.out" 2>&1 &
    rpid3=$!
    a1=$(addr_from "$tmp/r1.out" 's/^cachenetd: listening on \([^ ]*\).*/\1/p')
    a2=$(addr_from "$tmp/r2.out" 's/^cachenetd: listening on \([^ ]*\).*/\1/p')
    a3=$(addr_from "$tmp/r3.out" 's/^cachenetd: chaos proxy on \([^ ]*\) .*/\1/p')
    run_load() { # $@ = -hedge=true|false, then optional -batch N
        "$tmp/cacheload" -endpoints "$a1,$a2,$a3" -duration "$dur" \
            -conns 2 -pipeline 4 -verify=false -seed 11 "$@"
    }
    hedged=$(run_load -hedge=true)
    unhedged=$(run_load -hedge=false)
    bhedged=$(run_load -hedge=true -batch 32)
    bunhedged=$(run_load -hedge=false -batch 32)
    kill -TERM "$rpid1" "$rpid2" "$rpid3" 2>/dev/null || true
    wait "$rpid1" "$rpid2" "$rpid3" 2>/dev/null || true
    lat_of() { printf '%s\n' "$1" | sed -n 's/^  read latency: //p'; }
    ops_of() { printf '%s\n' "$1" | sed -n 's/^cacheload: .* — \([0-9]*\) ops\/s.*/\1/p'; }
    cluster_of() { printf '%s\n' "$1" | sed -n 's/^  cluster: //p'; }
    {
        echo '# Cluster client: hedged vs unhedged tail latency'
        echo
        echo 'Generated by `./scripts/bench.sh -cluster`.'
        echo
        echo "- host cores: $(nproc); loopback TCP; ${dur} per run"
        echo '- three cachenetd replicas; one sits behind its chaos proxy'
        echo '  with -chaos-delay-prob 0.4 (1-5ms uniform stall per chunk,'
        echo '  seed 42) — a deterministic slow replica'
        echo '- closed loop: 2 conns x 4 workers, 64B lines, 30% writes,'
        echo '  verification off; reads round-robin across replicas, so'
        echo '  ~1/3 of first attempts land on the slow member'
        echo '- hedged: a second read fires at the observed p95 latency'
        echo '  (clamped to [200us, 20ms]); unhedged reads wait out the'
        echo '  slow replica and only fail over on error'
        echo '- batch 32: each call is one 32-op batch (30% of calls write);'
        echo '  reads still outstanding at the hedge delay are re-issued'
        echo '  to their next fresh replica as one group; read latency is'
        echo '  per batch call, ops/s counts ops'
        echo
        echo '| mode | read latency | ops/s |'
        echo '|---|---|---|'
        echo "| hedged | $(lat_of "$hedged") | $(ops_of "$hedged") |"
        echo "| unhedged | $(lat_of "$unhedged") | $(ops_of "$unhedged") |"
        echo "| hedged, batch 32 | $(lat_of "$bhedged") | $(ops_of "$bhedged") |"
        echo "| unhedged, batch 32 | $(lat_of "$bunhedged") | $(ops_of "$bunhedged") |"
        echo
        echo "- hedged run:   $(cluster_of "$hedged")"
        echo "- unhedged run: $(cluster_of "$unhedged")"
        echo "- hedged batch run:   $(cluster_of "$bhedged")"
        echo "- unhedged batch run: $(cluster_of "$bunhedged")"
        echo
        echo 'Hedge and retry counters count ops, so a hedged batch group'
        echo 'of k ops adds k hedges.'
    } >"$out"
    echo "bench.sh: wrote $out"
    exit 0
    ;;
-all)
    pattern='.'
    pkgs='./...'
    ;;
esac

# shellcheck disable=SC2086 # pkgs is an intentional word list
exec go test -run '^$' -bench "$pattern" -benchmem -count "$count" $pkgs
