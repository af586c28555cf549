// Package store defines the storage-engine seam of the system: a Store
// interface over the protected, self-healing cache stack, and a Sharded
// router that stripes the address space across N fully independent
// engine instances.
//
// The single-engine implementation is resilience.Engine. Sharding
// exists because every structure in one engine — bank locks, breaker
// arrays, the scrubber's sweep, the single-flight repair table and its
// repair budgets — is scoped to that engine: a storm that wedges one
// engine's bank, or a breaker that opens on it, stalls everything
// behind that engine. With N shards each owning a full stack, the
// blast radius of a storm is 1/N of the address space, and the other
// shards never even observe it (no shared locks, no shared breaker
// state, no shared scrub schedule).
package store

import (
	"context"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Store is the storage-engine interface: a byte-addressable, protected,
// self-healing write-back cache over a backing store. Implementations
// must be safe for concurrent use.
//
// Batches are the only data path: a single op is a batch of one. Ops
// must not cross a cache-line boundary (each maps to exactly one line,
// hence one shard). Batch calls amortise locking and line movement
// across ops and report per-op outcomes in each op's Err field,
// returning how many ops failed; they are content-equivalent to issuing
// the ops one at a time, not stats-equivalent (grouping changes
// replacement order).
//
// The plain forms run unbounded; the Ctx forms bound per-op recovery
// work by ctx (the amortised fault-free pass always completes), and an
// already-expired ctx stamps every op with the context error instead of
// serving it — an expired deadline yields per-op deadline outcomes,
// never silent success.
type Store interface {
	ReadBatch(ops []pcache.ReadOp) (failed int)
	ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int)
	WriteBatch(ops []pcache.WriteOp) (failed int)
	WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int)

	Flush() error
	FlushCtx(ctx context.Context) error
}

// Both the single engine and the sharded router satisfy Store.
var (
	_ Store = (*resilience.Engine)(nil)
	_ Store = (*Sharded)(nil)
)
