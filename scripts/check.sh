#!/bin/sh
# check.sh — the tier-1 verify loop, `make check`-equivalent.
#
#   ./scripts/check.sh          # fmt + vet + build + export list + test + race on hardened packages
#   ./scripts/check.sh -full    # additionally race-test every package
#
# The race pass covers the packages with concurrent hot paths (banked
# pcache locking, the resilience engine/scrubber, atomic twod stats,
# the obs registry) and the kernel layer they are built on (bitvec word
# views, ecc codes); -full extends it to the whole module. The
# cluster's plane tests then run five more times under -race: planes,
# their attempts and results channels are recycled between calls, and
# one pass can miss a bug in state a straggler still holds. netsrv's
# pending-batch tests run five more times for the same reason: every
# data frame joins a connection's one pending batch, whose frame
# records, read arenas and retained write payloads are reused from one
# flush to the next. So do the resilience engine's single-flight
# tests: a repair budget's timer goroutine races the repair leader and
# its coalesced waiters for the flight.
#
# The bench module (bench/, its own go.mod) is vetted and tested too:
# it builds on the façade's CacheStore and ClusterConn, so narrowing an
# interface there must fail here, not first in the benchmark run.
#
# The replay gate re-runs every committed fault trace in
# internal/replay/testdata/ (each one is a shrunk, once-silent storm
# run) through the deterministic replayer; -full repeats them under
# -race and adds the cmd/soak exit-code contract.
#
# examples/protectedcache runs too (~0.3 s): it drives the bare
# protected cache through a soft-error storm against a reference model
# and exits non-zero (log.Fatal) on silent data loss. So does
# examples/quickstart (~0.5 s): it exits non-zero if the paper array
# does not recover a 32x32 cluster or any word reads back wrong.
#
# Every go test invocation carries -timeout 120s — the deadlock gate: a
# wedged repair (stuck single-flight leader, repair budget that never
# fires, scrubber Stop that never joins) fails the build in two minutes
# with a goroutine dump instead of idling under go test's default 10m.
#
# scripts/unused_exports.sh lists the exported funcs and methods that
# only tests use (~5 s); its output must match the committed
# scripts/unused_exports.txt, so a new test-only export, or one that
# gains a caller, changes that file in the same commit.
#
# staticcheck runs when the binary is on PATH and is skipped with a
# warning otherwise, so the gate tightens automatically on machines
# that have it without breaking minimal containers.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$fmt_out" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi
echo "== go build ./..."
go build ./...
echo "== test-only exports (scripts/unused_exports.sh vs scripts/unused_exports.txt)"
if ! ue_diff=$(sh scripts/unused_exports.sh | diff -u scripts/unused_exports.txt -); then
    echo "unused_exports: the exports only tests use differ from scripts/unused_exports.txt:" >&2
    echo "$ue_diff" >&2
    echo "delete the name, give it a non-test caller, or regenerate the file with" >&2
    echo "  sh scripts/unused_exports.sh > scripts/unused_exports.txt" >&2
    exit 1
fi
echo "== go test ./..."
go test -timeout 120s ./...
echo "== bench module: go vet + go test"
go -C bench vet ./...
go -C bench test -timeout 120s ./...
echo "== replay gate (committed fault traces)"
go test -timeout 120s ./internal/replay/ -run 'TestCommittedTraces'
echo "== self-checking examples (exit non-zero on silent data loss)"
go run ./examples/protectedcache
go run ./examples/quickstart
if [ "${1:-}" = "-full" ]; then
    echo "== go test -race ./... (full)"
    go test -race -timeout 120s ./...
    echo "== replay gate under -race (full)"
    go test -race -timeout 120s ./internal/replay/ -run 'TestCommittedTraces'
    echo "== cmd/soak exit-code contract (full)"
    sh scripts/test_soak_exit.sh
else
    echo "== go test -race (concurrency-hardened packages + kernel layer)"
    go test -race -timeout 120s ./internal/bitvec/ ./internal/ecc/ ./internal/twod/ ./internal/pcache/ ./internal/resilience/ ./internal/obs/ ./internal/store/ ./internal/netsrv/ ./internal/fault/ ./internal/cluster/ ./internal/bufpool/
    echo "== go test -race -count=5 (cluster planes: recycled plane state)"
    go test -race -count=5 -timeout 120s -run 'Straggler|PathEquivalence|HedgedRead|AmbiguityParity|FreshnessPartition' ./internal/cluster/
    echo "== go test -race -count=5 (netsrv pending batch: reused frame state)"
    go test -race -count=5 -timeout 120s -run 'PipelineBatching|DeadlineSwitch|DeadlineSinglesAmortised|OversizedBatch|BatchDeadline' ./internal/netsrv/
    echo "== go test -race -count=5 (single-flight repairs: budget timer vs leader and waiters)"
    go test -race -count=5 -timeout 120s -run 'ReadCtxDeadlineAbortDuringStall|SingleFlightRungAccounting|CoalescedWaiterDeadline|WatchdogForcesStalledRepair|RepairBudgetSparesFinishedRepair' ./internal/resilience/
fi
echo "check: OK"
