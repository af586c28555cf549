package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"

	"twodcache/internal/pcache"
)

// The cluster batch plane: one logical batch maps to at most one batch
// frame per endpoint, riding the servers' amortised store path. The
// freshness invariant holds per op — an endpoint serves only the ops it
// is fresh for — and the caller's ctx deadline travels in every batch
// frame, so per-op recovery work is deadline-bounded on each replica.
//
// Batches trade the single-op path's hedging and backoff retries for
// throughput: a replica failure stamps its ops' Err fields (and marks
// the endpoint down or missed, same as the single-op path) rather than
// triggering another round. Write failures carry the single-op path's
// error classes, ErrAmbiguousWrite included. Callers that need per-op
// retry semantics re-issue the failed subset.

// ReadBatch reads every op from the cluster in one round; see
// ReadBatchCtx.
func (c *Client) ReadBatch(ops []pcache.ReadOp) (failed int, err error) {
	return c.ReadBatchCtx(context.Background(), ops)
}

// ReadBatchCtx partitions ops across fresh endpoints (round-robin per
// op, so load spreads even when every endpoint is fresh for everything)
// and issues at most one BATCH_READ frame per endpoint, concurrently.
// Per-op outcomes land in each op's Err; ops no fresh replica can serve
// fail with ErrNoReplicas. A non-nil error is call-level (closed client
// or expired ctx): no op was served.
func (c *Client) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	if c.closed.Load() {
		return len(ops), ErrClosed
	}
	if len(ops) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return len(ops), err
	}
	c.reads.Add(uint64(len(ops)))

	// Admit each endpoint once per batch: one breaker token covers the
	// whole sub-batch, so a 10k-op batch cannot eat the breaker's probe
	// budget 10k times over.
	type gate struct {
		conn  Conn
		probe bool
		idxs  []int
	}
	gates := make([]gate, len(c.eps))
	admitted := make([]bool, len(c.eps))
	start := int(c.rr.Add(1))
	for i := range ops {
		ops[i].Err = ErrNoReplicas
		for j := 0; j < len(c.eps); j++ {
			k := (start + i + j) % len(c.eps)
			ep := c.eps[k]
			conn, fresh := ep.freshFor(ops[i].Addr)
			if !fresh {
				continue
			}
			if !admitted[k] {
				if gates[k].conn != nil {
					continue // admit already refused this endpoint
				}
				ok, probe := ep.admit()
				if !ok {
					gates[k].conn = conn // remember the refusal
					continue
				}
				admitted[k] = true
				gates[k] = gate{conn: conn, probe: probe}
			} else if gates[k].conn != conn {
				continue // transport changed underneath; skip this op here
			}
			gates[k].idxs = append(gates[k].idxs, i)
			ops[i].Err = nil
			break
		}
	}

	var wg sync.WaitGroup
	for k := range gates {
		if !admitted[k] {
			continue
		}
		ep, g := c.eps[k], &gates[k]
		if len(g.idxs) == 0 {
			ep.brk.Release(g.probe)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]pcache.ReadOp, len(g.idxs))
			for si, oi := range g.idxs {
				sub[si] = pcache.ReadOp{Addr: ops[oi].Addr, Dst: ops[oi].Dst}
			}
			_, berr := g.conn.ReadBatchCtx(ctx, sub)
			switch {
			case berr == nil:
				ep.brk.Record(g.probe, true)
			case ctxError(ctx, berr):
				ep.brk.Release(g.probe)
			default:
				ep.brk.Record(g.probe, false)
				if isTransportDead(berr) {
					ep.markDown(g.conn)
				}
			}
			for si, oi := range g.idxs {
				if berr != nil {
					ops[oi].Err = berr
				} else {
					ops[oi].Err = sub[si].Err
				}
			}
		}()
	}
	wg.Wait()

	for i := range ops {
		if ops[i].Err != nil {
			failed++
		}
	}
	if failed > 0 {
		// Count ops nobody could serve the way single-op reads count them.
		for i := range ops {
			if ops[i].Err == ErrNoReplicas {
				c.noReplicaErrors.Inc()
			}
		}
	}
	return failed, nil
}

// WriteBatch writes every op to the cluster in one round; see
// WriteBatchCtx.
func (c *Client) WriteBatch(ops []pcache.WriteOp) (failed int, err error) {
	return c.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx fans the whole batch out to every usable replica in one
// BATCH_WRITE frame each, under the stripe locks of every addr in the
// batch (taken in index order, so concurrent batch writes cannot
// deadlock and same-addr writes land in one order everywhere). An op
// succeeds if at least one replica applied it; every replica that did
// not (per-op failure, call-level failure, or not usable this round)
// gets the addr in its missed set and is excluded from reads until
// repair copies the value across. Each replica's per-op outcome is
// classified as WriteCtx classifies it: an op no replica applied, with
// any failure ambiguous, fails with ErrAmbiguousWrite (joined with the
// cause) unless writes are declared idempotent. The batch plane never
// retries. A non-nil error is call-level: no op was attempted anywhere.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	if c.closed.Load() {
		return len(ops), ErrClosed
	}
	if len(ops) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return len(ops), err
	}
	c.writes.Add(uint64(len(ops)))

	locks := make([]int, 0, len(ops))
	for i := range ops {
		locks = append(locks, stripeIndex(ops[i].Addr))
	}
	slices.Sort(locks)
	locks = slices.Compact(locks)
	for _, s := range locks {
		c.stripes[s].Lock()
	}
	defer func() {
		for _, s := range locks {
			c.stripes[s].Unlock()
		}
	}()
	for i := range ops {
		c.noteWritten(ops[i].Addr, len(ops[i].Data))
	}

	type wres struct {
		ep   *endpoint
		sub  []pcache.WriteOp
		berr error
	}
	results := make(chan wres, len(c.eps))
	launched := 0
	for _, ep := range c.eps {
		conn, probe, usable := c.admitWrite(ep)
		if !usable {
			for i := range ops {
				ep.markMissed(ops[i].Addr, len(ops[i].Data))
			}
			continue
		}
		launched++
		go func(ep *endpoint, conn Conn, probe bool) {
			sub := make([]pcache.WriteOp, len(ops))
			for i := range ops {
				sub[i] = pcache.WriteOp{Addr: ops[i].Addr, Data: ops[i].Data}
			}
			_, berr := conn.WriteBatchCtx(ctx, sub)
			switch {
			case berr == nil:
				ep.brk.Record(probe, true)
			case ctxError(ctx, berr):
				ep.brk.Release(probe)
			default:
				ep.brk.Record(probe, false)
				if isTransportDead(berr) {
					ep.markDown(conn)
				}
			}
			results <- wres{ep, sub, berr}
		}(ep, conn, probe)
	}

	applied := make([]int, len(ops))
	ambiguous := make([]bool, len(ops))
	errs := make([]error, len(ops))
	for r := 0; r < launched; r++ {
		res := <-results
		for i := range ops {
			operr := res.berr
			if operr == nil {
				operr = res.sub[i].Err
			}
			switch classifyWrite(ctx, operr) {
			case wApplied:
				applied[i]++
				res.ep.clearMissed(ops[i].Addr)
				continue
			case wAmbiguous:
				ambiguous[i] = true
			}
			res.ep.markMissed(ops[i].Addr, len(ops[i].Data))
			errs[i] = operr
		}
	}
	for i := range ops {
		switch {
		case applied[i] > 0:
			ops[i].Err = nil
			continue
		case errs[i] == nil:
			errs[i] = ErrNoReplicas
			c.noReplicaErrors.Inc()
		case ambiguous[i] && !c.cfg.IdempotentWrites:
			c.ambiguousWrites.Inc()
			errs[i] = errors.Join(ErrAmbiguousWrite, errs[i])
		}
		ops[i].Err = errs[i]
		failed++
	}
	return failed, nil
}
