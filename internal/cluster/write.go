package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"

	"twodcache/internal/netsrv"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Write stores data at addr on the cluster.
func (c *Client) Write(addr uint64, data []byte) error {
	return c.WriteCtx(context.Background(), addr, data)
}

// WriteCtx stores data at addr: the write plane with a batch of one.
func (c *Client) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	op := [1]pcache.WriteOp{{Addr: addr, Data: data}}
	if _, err := c.write(ctx, op[:]); err != nil {
		return err
	}
	return op[0].Err
}

// WriteBatchCtx writes every op through the write plane, so each op
// gets exactly the fan-out, ambiguity rule and retries a WriteCtx of it
// would. Per-op outcomes land in each op's Err. A non-nil error is
// call-level (closed client or expired ctx): no op was attempted.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	return c.write(ctx, ops)
}

// writeOp is the write plane's state for one op.
type writeOp struct {
	skip      int   // endpoint the selftest skew hook withholds the op from, or -1
	live      bool  // goes out in the current round
	applied   int   // replicas that applied the op in its last round
	ambiguous bool  // some replica's outcome in its last round is unknown
	err       error // the last round's failure; nil once applied
}

// writeAttempt is one conn call carrying a round's ops to one replica.
type writeAttempt struct {
	ep    *endpoint // nil when the replica carries nothing this round
	conn  Conn      // nil when the replica is down or shed
	probe bool
	ops   []pcache.WriteOp // the carried ops in batch order, with outcomes
	one   [1]pcache.WriteOp
	err   error // call-level outcome
}

// write is the write plane. It holds the stripe locks of every op's
// addr (sorted and compacted, so concurrent writers cannot deadlock and
// writes to one addr land in the same order everywhere) across all
// rounds. Each round fans the live ops out to every usable replica; an
// op succeeds once at least one replica applied it, and every replica
// that did not gets the addr in its missed set, excluded from reads
// until read-repair copies the value across. An op no replica applied
// fails with ErrAmbiguousWrite when any outcome was ambiguous and writes
// are not idempotent — a blind retry could apply it twice — and is
// otherwise retried with backoff while it fails retryably, unless a
// later op in the batch on its addr was applied: retried, it would land
// on top of that op, whose value stands either way.
func (c *Client) write(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	if err := c.callErr(ctx); err != nil || len(ops) == 0 {
		return len(ops), err
	}
	c.writes.Add(uint64(len(ops)))
	var small [8]int
	locks := small[:0]
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

	st := make([]writeOp, len(ops))
	for i := range ops {
		c.noteWritten(ops[i].Addr, len(ops[i].Data))
		st[i] = writeOp{skip: c.skewTarget(), live: true}
	}
	for attempt := 0; ; attempt++ {
		c.writeRound(ctx, ops, st)
		retry := 0
		for i := range st {
			s := &st[i]
			if !s.live {
				continue
			}
			if s.live = false; s.applied > 0 {
				s.err = nil
				continue
			}
			if s.err == nil {
				// No replica was even usable this round — retryable: a
				// redial or breaker probe may restore one.
				c.noReplicaErrors.Inc()
				s.err = ErrNoReplicas
			}
			switch {
			case s.ambiguous && !c.cfg.IdempotentWrites:
				c.ambiguousWrites.Inc()
				s.err = errors.Join(ErrAmbiguousWrite, s.err)
			case ctx.Err() != nil:
				s.err = ctx.Err()
			case !isRetryable(s.err):
			case superseded(ops, st, i):
				s.err = nil
			default:
				s.live = true
				retry++
			}
		}
		again := false
		if again, err = c.backoff(ctx, attempt, retry); !again {
			break
		}
	}
	for i := range ops {
		if err != nil && st[i].live {
			st[i].err = err
		}
		if ops[i].Err = st[i].err; ops[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

// superseded reports whether an op after op i in the batch writes the
// same addr and was applied.
func superseded(ops []pcache.WriteOp, st []writeOp, i int) bool {
	for j := i + 1; j < len(ops); j++ {
		if ops[j].Addr == ops[i].Addr && st[j].applied > 0 {
			return true
		}
	}
	return false
}

// writeRound fans the live ops out to every replica, one attempt per
// replica, and folds each replica's per-op outcome into st and the
// replica's missed set. A down or shed replica misses every op. The
// selftest skip is deliberately silent: no missed record, no metrics
// beyond the skip counter — it is the injected bug.
func (c *Client) writeRound(ctx context.Context, ops []pcache.WriteOp, st []writeOp) {
	atts := make([]writeAttempt, len(c.eps))
	var wg sync.WaitGroup
	for k, ep := range c.eps {
		a := &atts[k]
		a.ops = a.one[:0]
		if len(ops) > 1 {
			a.ops = make([]pcache.WriteOp, 0, len(ops))
		}
		for i := range st {
			if st[i].live && st[i].skip != k {
				a.ops = append(a.ops, pcache.WriteOp{Addr: ops[i].Addr, Data: ops[i].Data})
			}
		}
		if len(a.ops) == 0 {
			continue
		}
		a.ep, a.conn = ep, ep.liveConn()
		ok := a.conn != nil
		if ok {
			ok, a.probe = ep.admit()
		}
		if !ok {
			a.conn = nil
			continue
		}
		wg.Add(1)
		go a.run(ctx, &wg)
	}
	wg.Wait()
	for i := range st {
		if s := &st[i]; s.live {
			s.applied, s.ambiguous, s.err = 0, false, nil
		}
	}
	for k := range atts {
		a, si := &atts[k], 0
		for i := range st {
			if a.ep == nil || !st[i].live || st[i].skip == k {
				continue
			}
			err := a.err
			if err == nil && a.conn != nil {
				err = a.ops[si].Err
			}
			si++
			applied, ambiguous := classifyWrite(err)
			switch {
			case a.conn == nil: // down or shed: a miss, not a failure
			case applied:
				st[i].applied++
				a.ep.clearMissed(ops[i].Addr)
				continue
			default:
				st[i].ambiguous = st[i].ambiguous || ambiguous
				st[i].err = err
			}
			a.ep.markMissed(ops[i].Addr, len(ops[i].Data))
		}
	}
}

// run sends the attempt — a group of one as a WRITE frame, a larger
// group as one BATCH_WRITE — and settles its breaker bookkeeping.
func (a *writeAttempt) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	if len(a.ops) == 1 {
		a.err = a.conn.WriteCtx(ctx, a.ops[0].Addr, a.ops[0].Data)
	} else {
		_, a.err = a.conn.WriteBatchCtx(ctx, a.ops)
	}
	a.ep.settle(ctx, a.conn, a.probe, a.err)
}

// skewTarget is the selftest skew hook: every Nth written op silently
// skips one replica, creating exactly the divergence the freshness
// machinery exists to prevent. Shadow verification must catch it. It
// answers the replica to skip, or -1.
func (c *Client) skewTarget() int {
	if c.cfg.SelftestSkewEvery <= 0 {
		return -1
	}
	every := uint64(c.cfg.SelftestSkewEvery)
	seq := c.writeSeq.Add(1)
	if seq%every != 0 {
		return -1
	}
	c.selftestSkipped.Inc()
	return int(seq/every) % len(c.eps)
}

// classifyWrite sorts a per-replica write error into applied (nil),
// definitely not applied, or ambiguous.
//
// Definite not-applied: the server answered with a refusal it issues
// before touching the store (draining, bad request, recovery-abandoned)
// — an answered request is a request whose fate the server reported.
// Ambiguous: the transport died after the frame may have been sent, or
// a deadline fired server-side racing the apply, or our own context
// gave up while the request was in flight.
func classifyWrite(err error) (applied, ambiguous bool) {
	switch {
	case err == nil:
		return true, false
	case errors.Is(err, netsrv.ErrDraining),
		errors.Is(err, netsrv.ErrBadRequest),
		errors.Is(err, netsrv.ErrUnsupported),
		errors.Is(err, resilience.ErrRecoveryInProgress):
		return false, false
	}
	return false, true
}
