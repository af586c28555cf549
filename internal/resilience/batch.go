package resilience

// Batched accesses through the escalation ladder — the engine's only
// data calls; a single access is a batch of one. The cache's
// bank-grouped batch path serves the common (fault-free) case with
// amortised locking and line movement; any op that surfaces a
// detected-uncorrectable error is then re-driven through the ladder as
// a batch of its own, so every attempt checks the whole line the first
// pass checked — and each failed op gets its own DUE accounting and
// ladder latency observation.
//
// The Ctx variants bound only the expensive half of that split: the
// amortised cache pass always runs to completion (it never blocks on
// repair machinery), while each per-op ladder re-drive honours ctx at
// every rung boundary and while coalesced behind another request's
// repair. An op whose budget runs out mid-recovery fails with a
// *RecoveryInProgressError (matching both ErrRecoveryInProgress and
// ctx.Err() via errors.Is); the repair itself keeps running. A batch
// that arrives with its context already expired is not served at all —
// every op is stamped with the context's error, so an expired deadline
// yields per-op deadline outcomes, never silent success.

import (
	"context"

	"twodcache/internal/pcache"
)

// ReadBatch serves every op through the cache's batched path, then
// runs the escalation ladder on each op that tripped a machine check.
// Per-op outcomes land in each op's Err field; the return value counts
// ops that still failed after recovery. Safe for concurrent use.
func (e *Engine) ReadBatch(ops []pcache.ReadOp) (failed int) {
	return e.ReadBatchCtx(context.Background(), ops)
}

// ReadBatchCtx is ReadBatch with the ladder re-drives bounded by ctx:
// the amortised cache pass runs unbounded (it does not wait on
// repairs), and each failed op's recovery is then limited by ctx. An
// already-expired ctx stamps every op with the context error and serves
// nothing.
func (e *Engine) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		for i := range ops {
			ops[i].Err = err
		}
		return len(ops)
	}
	if e.cache.ReadBatch(ops) == 0 {
		return 0
	}
	for i := range ops {
		if ops[i].Err == nil {
			continue
		}
		one := ops[i : i+1]
		ops[i].Err = e.ladderCtx(ctx, ops[i].Err,
			func() error { e.cache.ReadBatch(one); return one[0].Err })
		if ops[i].Err != nil {
			failed++
		}
	}
	return failed
}

// WriteBatch stores every op through the cache's batched path, then
// runs the escalation ladder on each op that tripped a machine check.
// Per-op outcomes land in each op's Err field; the return value counts
// ops that still failed after recovery. Safe for concurrent use.
func (e *Engine) WriteBatch(ops []pcache.WriteOp) (failed int) {
	return e.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx is WriteBatch with the ladder re-drives bounded by
// ctx; see ReadBatchCtx for the exact split.
func (e *Engine) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		for i := range ops {
			ops[i].Err = err
		}
		return len(ops)
	}
	if e.cache.WriteBatch(ops) == 0 {
		return 0
	}
	for i := range ops {
		if ops[i].Err == nil {
			continue
		}
		one := ops[i : i+1]
		ops[i].Err = e.ladderCtx(ctx, ops[i].Err,
			func() error { e.cache.WriteBatch(one); return one[0].Err })
		if ops[i].Err != nil {
			failed++
		}
	}
	return failed
}
