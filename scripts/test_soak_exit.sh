#!/bin/sh
# test_soak_exit.sh — the exit-code contract of cmd/soak, and of
# cachenetd and cacheload driven together (cases 13-17).
#
# A soak run that detects silent corruption MUST exit non-zero, in
# every mode: a live run, a live run interrupted by SIGINT mid-failure
# (the drain still reports and fails), and a deterministic -replay of a
# trace that goes silent. Healthy runs and expect-silent
# self-validation traces exit 0. A cacheload run that could not drive
# its load exits 2, never PASS. CI treats a zero exit from a corrupted
# run as the worst possible outcome — this script pins the contract.
set -u
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/soak"
go build -o "$bin" ./cmd/soak || exit 1

fail() {
    echo "test_soak_exit: FAIL: $*" >&2
    exit 1
}

# 1. Replay of a committed regression trace replays clean -> exit 0.
"$bin" -replay internal/replay/testdata/tornfill-shrunk.trace >/dev/null \
    || fail "clean replay exited $?"

# 2. The self-validation trace declares "expect silent" and must go
#    silent -> exit 0.
"$bin" -replay internal/replay/testdata/selftest-silent.trace >/dev/null \
    || fail "expect-silent replay exited $?"

# 3. The same trace with the declaration stripped: the silent
#    classification now counts as a failure -> exit 1.
grep -v '^expect silent$' internal/replay/testdata/selftest-silent.trace >"$tmp/silent.trace"
"$bin" -replay "$tmp/silent.trace" >/dev/null 2>&1
st=$?
[ "$st" -eq 1 ] || fail "silent replay exited $st (want 1)"

# 4. Live failing run: the backing store is corrupted behind the
#    cache's back (storm slowed so no loss epoch ever moves) -> exit 1
#    with the FAIL banner. -ways 2 oversubscribes the cache so evicted
#    lines refill from the poisoned backing.
out=$("$bin" -duration 1s -ways 2 -selftest-corrupt-backing -fault-interval 10s -stats-interval 0 2>&1)
st=$?
[ "$st" -eq 1 ] || fail "live failing run exited $st (want 1)"
case "$out" in
*"FAIL — silent corruption detected"*) ;;
*) fail "live failing run printed no FAIL banner" ;;
esac

# 5. SIGINT during a failing run: workers drain, the report prints, and
#    the exit code still says failure.
"$bin" -duration 60s -ways 2 -selftest-corrupt-backing -fault-interval 10s -stats-interval 0 >/dev/null 2>&1 &
pid=$!
sleep 2
kill -INT "$pid"
wait "$pid"
st=$?
[ "$st" -eq 1 ] || fail "interrupted failing run exited $st (want 1)"

# 6. SIGINT during a healthy run drains and exits 0.
"$bin" -duration 60s -banks 1 -stats-interval 0 >/dev/null 2>&1 &
pid=$!
sleep 2
kill -INT "$pid"
wait "$pid"
st=$?
[ "$st" -eq 0 ] || fail "interrupted healthy run exited $st (want 0)"

# 7. SLO violation is its OWN exit code (3), distinct from corruption's
#    1: an unmeetable 1ns p99 budget means every read lands over budget,
#    the data is still fine, and the run must say "too slow", not "lied
#    about data".
out=$("$bin" -duration 1s -p99-budget 1ns -stats-interval 0 2>&1)
st=$?
[ "$st" -eq 3 ] || fail "SLO-violating run exited $st (want 3)"
case "$out" in
*"FAIL — p99 read latency over budget"*) ;;
*) fail "SLO-violating run printed no SLO FAIL banner" ;;
esac

# 8. A generous budget passes: SLO mode itself must not break a healthy
#    run's zero exit.
"$bin" -duration 1s -p99-budget 50ms -stats-interval 0 >/dev/null 2>&1 \
    || fail "healthy SLO run exited $?"

# 9. Sharded hard storm: four independent shards under an aggressive
#    fault rate still finish with zero silent corruptions -> exit 0.
"$bin" -shards 4 -duration 2s -fault-interval 100us -stats-interval 0 >/dev/null 2>&1 \
    || fail "4-shard hard-storm run exited $?"

# 10. A recording must replay the run it recorded, so -record rejects
#     up front (exit 2) what the replayer cannot reproduce: -shards >1
#     (N engines interleave independently), -p99-budget (read deadlines
#     and the repair budget), -chaos-stall-recovery (the repair budget's
#     forced degradations are not recorded) and -selftest-corrupt-backing
#     (backing pokes are not recorded).
for extra in "-shards 4" "-p99-budget 50ms" "-chaos-stall-recovery 1ms" "-selftest-corrupt-backing"; do
    "$bin" $extra -record /dev/null -duration 1s >/dev/null 2>&1
    st=$?
    [ "$st" -eq 2 ] || fail "-record with $extra exited $st (want 2)"
done

# 11. -http is part of the run's lifecycle: a healthy run serving
#     metrics still drains to exit 0 on SIGINT (the owned http server
#     shuts down with the run instead of leaking an accept loop).
"$bin" -duration 60s -http 127.0.0.1:0 -stats-interval 0 >/dev/null 2>&1 &
pid=$!
sleep 2
kill -INT "$pid"
wait "$pid"
st=$?
[ "$st" -eq 0 ] || fail "interrupted -http run exited $st (want 0)"

# 12. A bad -http address (port already held) must fail the run at
#     startup with exit 2 — not soak for the full duration silently
#     serving no metrics.
"$bin" -duration 60s -http 127.0.0.1:0 -stats-interval 0 >"$tmp/http.out" 2>&1 &
pid=$!
sleep 1
addr=$(sed -n 's/^soak: serving .* on \(.*\)$/\1/p' "$tmp/http.out")
[ -n "$addr" ] || { kill -INT "$pid"; wait "$pid"; fail "-http run never printed its bound address"; }
"$bin" -duration 60s -http "$addr" -stats-interval 0 >/dev/null 2>&1
st=$?
kill -INT "$pid"
wait "$pid"
[ "$st" -eq 2 ] || fail "port-in-use -http run exited $st (want 2)"

# 13. Replicated cluster drill: three cachenetd replicas behind
#     deterministic chaos proxies, a closed-loop cacheload driving them,
#     and one replica killed with SIGKILL mid-run then restarted on the
#     same address with an empty store. The freshness machinery must
#     keep every read correct: exit 0, zero silent corruption.
netd="$tmp/cachenetd"
load="$tmp/cacheload"
go build -o "$netd" ./cmd/cachenetd || exit 1
go build -o "$load" ./cmd/cacheload || exit 1

start_netd() { # $1=outfile $2=addr $3=seed
    "$netd" -addr "$2" -seed "$3" -chaos-seed "$3" \
        -chaos-delay-prob 0.05 -chaos-reset-prob 0.002 -chaos-tear-prob 0.002 \
        >"$1" 2>&1 &
}
netd_addr() { # $1=outfile — the client-facing (chaos proxy) address
    for _ in $(seq 1 50); do
        a=$(sed -n 's/^cachenetd: chaos proxy on \([^ ]*\) .*$/\1/p' "$1")
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.1
    done
    return 1
}

start_netd "$tmp/n1.out" 127.0.0.1:0 101; pid1=$!
start_netd "$tmp/n2.out" 127.0.0.1:0 102; pid2=$!
start_netd "$tmp/n3.out" 127.0.0.1:0 103; pid3=$!
a1=$(netd_addr "$tmp/n1.out") || fail "replica 1 never printed its address"
a2=$(netd_addr "$tmp/n2.out") || fail "replica 2 never printed its address"
a3=$(netd_addr "$tmp/n3.out") || fail "replica 3 never printed its address"

"$load" -endpoints "$a1,$a2,$a3" -duration 5s -seed 7 -lines 512 >"$tmp/load.out" 2>&1 &
loadpid=$!
sleep 1.5
kill -KILL "$pid2" 2>/dev/null
wait "$pid2" 2>/dev/null
sleep 1
start_netd "$tmp/n2b.out" "$a2" 102; pid2=$!
wait "$loadpid"
st=$?
kill -INT "$pid1" "$pid2" "$pid3" 2>/dev/null
wait "$pid1" "$pid2" "$pid3" 2>/dev/null
[ "$st" -eq 0 ] || { cat "$tmp/load.out" >&2; fail "cluster kill/restart drill exited $st (want 0)"; }
grep -q "cacheload: PASS" "$tmp/load.out" \
    || { cat "$tmp/load.out" >&2; fail "cluster drill printed no PASS banner"; }

# 14. The skew selftest proves the shadow verifier would catch real
#     replication divergence: -selftest-skew-writes silently skips one
#     replica every Nth write, which MUST surface as silent corruption
#     -> exit 1. Batch writes go through the same write plane, so the
#     drill must fail the same way with -batch 32.
plain_addr() { # $1=outfile
    for _ in $(seq 1 50); do
        a=$(sed -n 's/^cachenetd: listening on \([^ ]*\) .*$/\1/p' "$1")
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.1
    done
    return 1
}
skew_drill() { # $@ = extra cacheload flags
    "$netd" -addr 127.0.0.1:0 >"$tmp/s1.out" 2>&1 &
    spid1=$!
    "$netd" -addr 127.0.0.1:0 >"$tmp/s2.out" 2>&1 &
    spid2=$!
    "$netd" -addr 127.0.0.1:0 >"$tmp/s3.out" 2>&1 &
    spid3=$!
    b1=$(plain_addr "$tmp/s1.out") || fail "skew replica 1 never printed its address"
    b2=$(plain_addr "$tmp/s2.out") || fail "skew replica 2 never printed its address"
    b3=$(plain_addr "$tmp/s3.out") || fail "skew replica 3 never printed its address"
    "$load" -endpoints "$b1,$b2,$b3" -duration 3s -seed 7 -lines 256 -selftest-skew-writes 4 "$@" \
        >"$tmp/skew.out" 2>&1
    st=$?
    kill -INT "$spid1" "$spid2" "$spid3" 2>/dev/null
    wait "$spid1" "$spid2" "$spid3" 2>/dev/null
    [ "$st" -eq 1 ] || { cat "$tmp/skew.out" >&2; fail "skew selftest $* exited $st (want 1)"; }
    grep -q "FAIL — silent corruption detected" "$tmp/skew.out" \
        || { cat "$tmp/skew.out" >&2; fail "skew selftest $* exit 1 was not the corruption banner"; }
}
skew_drill
skew_drill -batch 32

# 15. Batch deadlines are a per-op contract, not a silent success: a
#     single cachenetd under batch load with a tight-but-nonzero
#     deadline must finish PASS (exit 0) while REPORTING deadline
#     aborts — every timed-out op surfaces as a per-op deadline status
#     the client counts, never as fabricated data. A zero reported
#     count under a 5ms budget with chaos delays would mean deadlines
#     are being swallowed somewhere on the batch plane.
"$netd" -addr 127.0.0.1:0 -chaos-seed 55 -chaos-delay-prob 0.3 \
    >"$tmp/bd.out" 2>&1 &
bdpid=$!
c1=$(netd_addr "$tmp/bd.out") || fail "batch-deadline replica never printed its address"
"$load" -endpoints "$c1" -duration 3s -seed 7 -lines 256 -batch 16 -deadline 5ms \
    >"$tmp/bdload.out" 2>&1
st=$?
kill -INT "$bdpid" 2>/dev/null
wait "$bdpid" 2>/dev/null
[ "$st" -eq 0 ] || { cat "$tmp/bdload.out" >&2; fail "batch-deadline run exited $st (want 0)"; }
grep -q "cacheload: PASS" "$tmp/bdload.out" \
    || { cat "$tmp/bdload.out" >&2; fail "batch-deadline run printed no PASS banner"; }
aborts=$(sed -n 's/.*accounting: *\([0-9][0-9]*\) reported DUE\/aborts.*/\1/p' "$tmp/bdload.out")
[ -n "$aborts" ] && [ "$aborts" -gt 0 ] \
    || { cat "$tmp/bdload.out" >&2; fail "batch-deadline run reported no deadline aborts (got '${aborts:-}')"; }

# 16. cachenetd's own storm under verified load: two shards storming
#     every 200us, metrics served, and cacheload's loss-epoch check over
#     the wire must PASS (exit 0). The drain on SIGINT exits 0 and its
#     "drained clean" line must count recovered errors, or the storm
#     never struck.
"$netd" -addr 127.0.0.1:0 -shards 2 -fault-interval 200us -http 127.0.0.1:0 \
    >"$tmp/storm.out" 2>&1 &
stpid=$!
d1=$(plain_addr "$tmp/storm.out") || { kill -INT "$stpid"; wait "$stpid"; fail "storming cachenetd never printed its address"; }
"$load" -addr "$d1" -duration 2s -lines 512 >"$tmp/stormload.out" 2>&1
st=$?
kill -INT "$stpid"
wait "$stpid"
nst=$?
[ "$st" -eq 0 ] || { cat "$tmp/stormload.out" >&2; fail "cacheload against a storming cachenetd exited $st (want 0)"; }
grep -q "cacheload: PASS" "$tmp/stormload.out" \
    || { cat "$tmp/stormload.out" >&2; fail "cacheload against a storming cachenetd printed no PASS banner"; }
[ "$nst" -eq 0 ] || { cat "$tmp/storm.out" >&2; fail "storming cachenetd drain exited $nst (want 0)"; }
grep -q "^cachenetd: serving /debug/vars and /metrics on " "$tmp/storm.out" \
    || { cat "$tmp/storm.out" >&2; fail "storming cachenetd never served its metrics"; }
recovered=$(sed -n 's/^cachenetd: drained clean .*, \([0-9][0-9]*\) recovered,.*/\1/p' "$tmp/storm.out")
[ -n "$recovered" ] && [ "$recovered" -gt 0 ] \
    || { cat "$tmp/storm.out" >&2; fail "storming cachenetd recovered no errors (got '${recovered:-}')"; }

# 17. A worker that a call-level error stops fails the run. A 40000-op
#     read frame asks for 2.56 MB, over the server's 2 MiB per-frame read
#     limit, so the server refuses it and every worker stops at its first
#     read. cacheload must exit 2 (it did not drive its load), name the
#     refused request on stderr and print no PASS banner.
"$netd" -addr 127.0.0.1:0 >"$tmp/big.out" 2>&1 &
bgpid=$!
e1=$(plain_addr "$tmp/big.out") || { kill -INT "$bgpid"; wait "$bgpid"; fail "oversized-frame cachenetd never printed its address"; }
"$load" -addr "$e1" -batch 40000 -write-frac 0 -duration 1s >"$tmp/bigload.out" 2>"$tmp/bigload.err"
st=$?
kill -INT "$bgpid"
wait "$bgpid"
[ "$st" -eq 2 ] || { cat "$tmp/bigload.out" "$tmp/bigload.err" >&2; fail "oversized-frame cacheload exited $st (want 2)"; }
grep -q "bad BATCH_READ op size" "$tmp/bigload.err" \
    || { cat "$tmp/bigload.err" >&2; fail "oversized-frame cacheload did not name the refused request on stderr"; }
if grep -q "cacheload: PASS" "$tmp/bigload.out"; then
    cat "$tmp/bigload.out" >&2
    fail "oversized-frame cacheload printed a PASS banner"
fi

# 18. Chaos drill: every full-2D rung that a repair reaches wedges for
#     30s, and only the repair budget (-repair-budget, set in chaos
#     mode) releases it. The 1-bank hard storm drives repairs into that
#     rung, so the run must exit 0 well inside one stall, and its chaos
#     line must report the stall engaged at least once, each engagement
#     force-escalated.
t0=$(date +%s)
"$bin" -duration 2s -banks 1 -fault-interval 60us -scrub-interval 10ms \
    -chaos-stall-recovery 30s -stats-interval 0 -seed 1 >"$tmp/chaos.out" 2>&1
st=$?
took=$(( $(date +%s) - t0 ))
[ "$st" -eq 0 ] || { cat "$tmp/chaos.out" >&2; fail "chaos stall drill exited $st (want 0)"; }
[ "$took" -lt 15 ] || { cat "$tmp/chaos.out" >&2; fail "chaos stall drill took ${took}s: a stalled repair waited out its stall"; }
engaged=$(sed -n 's/^  chaos: .* engaged \([0-9][0-9]*\) times, [0-9][0-9]* force-escalations$/\1/p' "$tmp/chaos.out")
forced=$(sed -n 's/^  chaos: .* engaged [0-9][0-9]* times, \([0-9][0-9]*\) force-escalations$/\1/p' "$tmp/chaos.out")
[ -n "$engaged" ] && [ "$engaged" -ge 1 ] \
    || { cat "$tmp/chaos.out" >&2; fail "chaos stall never engaged (got '${engaged:-}')"; }
[ -n "$forced" ] && [ "$forced" -ge "$engaged" ] \
    || { cat "$tmp/chaos.out" >&2; fail "chaos stall engaged $engaged times, force-escalated ${forced:-?}"; }

echo "test_soak_exit: OK"
