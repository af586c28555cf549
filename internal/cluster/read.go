package cluster

import (
	"context"
	"sync"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/pcache"
)

// Read reads n bytes at addr from the cluster.
func (c *Client) Read(addr uint64, n int) ([]byte, error) {
	return c.ReadCtx(context.Background(), addr, n)
}

// ReadCtx reads n bytes at addr: the read plane with a batch of one.
// The returned slice is the winning attempt's own payload.
func (c *Client) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	op := [1]pcache.ReadOp{{Addr: addr}}
	if _, err := c.read(ctx, op[:], n); err != nil {
		return nil, err
	}
	return op[0].Dst, op[0].Err
}

// ReadBatchCtx reads every op through the read plane, so each op is
// hedged, failed over and retried exactly as a ReadCtx of it would be.
// Per-op outcomes land in each op's Err; ops no fresh replica can serve
// fail with ErrNoReplicas. A non-nil error is call-level (closed client
// or expired ctx): no op was served.
func (c *Client) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	return c.read(ctx, ops, 0)
}

// readOp is the read plane's state for one op in the current round.
type readOp struct {
	err      error // the round's last failure; nil once served
	tried    int   // endpoints of the op's order tried this round
	inflight int   // attempts carrying the op
	pick     int   // endpoint+1 the launch in progress chose; 0 for none
	want     bool  // needs an attempt from the next launch
	hedged   bool  // a hedge carried the op
	done     bool  // served, or out of endpoints with nothing in flight
}

// gate is an endpoint's breaker verdict for one round, asked (conn set)
// when an op first needs the endpoint. A probe covers one attempt.
type gate struct {
	conn              Conn
	ok, probe, picked bool // picked: an op chose it in the launch in progress
}

// readAttempt is one conn call carrying a group of ops to one endpoint.
// It reads into buffers it owns, so attempts racing for one op never
// share the caller's Dst: only the winner's bytes land there.
type readAttempt struct {
	ep           *endpoint
	conn         Conn
	probe, hedge bool
	idx          []int           // caller op indices
	ops          []pcache.ReadOp // per-op outcomes; Dst cut from buf
	one          [1]pcache.ReadOp
	oneIdx       [1]int
	n            int    // bytes a group of one reads
	buf          []byte // a larger group's pooled arena
	err          error  // call-level outcome
	latency      time.Duration
}

// readPlane is one logical read, touched only by its caller's goroutine.
type readPlane struct {
	c       *Client
	ops     []pcache.ReadOp
	n       int // bytes an op with a nil Dst reads
	st      []readOp
	gates   []gate
	first   int // the round's round-robin start
	open    int // ops of the round not yet done
	actx    context.Context
	results chan *readAttempt
}

// hedgeTimers recycles the stopped, drained timers hedged rounds wait on.
var hedgeTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// read is the read plane. Each round partitions its ops across fresh,
// admitted endpoints (op i tries endpoints in round-robin order from the
// round's start plus i) and sends one attempt per endpoint group. After
// the hedge delay, ops still outstanding are re-issued to their next
// fresh endpoint; an op that fails on one replica moves to its next one
// at once. The first success wins. Ops still failing retryably go round
// again after a jittered backoff while retries and deadline headroom
// remain. An op with a nil Dst reads n bytes and takes the winning
// payload as its Dst.
func (c *Client) read(ctx context.Context, ops []pcache.ReadOp, n int) (failed int, err error) {
	if err := c.callErr(ctx); err != nil || len(ops) == 0 {
		return len(ops), err
	}
	c.reads.Add(uint64(len(ops)))
	p := readPlane{c: c, ops: ops, n: n, st: make([]readOp, len(ops)), gates: make([]gate, len(c.eps))}
	for attempt := 0; ; attempt++ {
		if err = p.round(ctx, attempt); err != nil {
			break
		}
		retry := 0
		for i := range p.st {
			if isRetryable(p.st[i].err) {
				retry++
			}
		}
		again := false
		if again, err = c.backoff(ctx, attempt, retry); !again {
			break
		}
	}
	for i := range ops {
		if s := &p.st[i]; err != nil && (!s.done || isRetryable(s.err)) {
			s.err = err
		}
		if ops[i].Err = p.st[i].err; ops[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

// round runs one round over all ops (the first) or the retryable ones;
// every other op is done. A non-nil error ends the read: the caller's
// context ended or the client closed.
func (p *readPlane) round(ctx context.Context, attempt int) error {
	c := p.c
	p.first = int(c.rr.Add(1))
	clear(p.gates)
	for i := range p.st {
		if s := &p.st[i]; attempt == 0 || isRetryable(s.err) {
			*s = readOp{want: true}
			p.open++
		}
	}
	// A winner cancels the stragglers; each attempt settles its own
	// breaker bookkeeping.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Sized to the most attempts a round can send (each op tries each
	// endpoint at most once), so a straggler never blocks.
	p.actx, p.results = actx, make(chan *readAttempt, p.open*len(c.eps))
	p.launch(false)
	var hedge <-chan time.Time
	if !c.cfg.DisableHedging && len(c.eps) > 1 && p.open > 0 {
		t := hedgeTimers.Get().(*time.Timer)
		t.Reset(c.hedgeDelay())
		hedge = t.C
		defer func() {
			// A timer that fired unreceived would hand its tick to the
			// next round: let the collector have it instead.
			if t.Stop() || hedge == nil {
				hedgeTimers.Put(t)
			}
		}()
	}
	for p.open > 0 {
		select {
		case <-hedge:
			hedge = nil
			for i := range p.st {
				s := &p.st[i]
				s.want = !s.done && s.inflight > 0
			}
			p.launch(true)
		case a := <-p.results:
			if err := p.settle(ctx, a); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return ErrClosed
		}
	}
	return nil
}

// settle folds a finished attempt into the ops it carried: an op's
// first success lands its bytes, a failure moves the op on to its next
// endpoint at once.
func (p *readPlane) settle(ctx context.Context, a *readAttempt) error {
	c := p.c
	served, failover := false, false
	for si, i := range a.idx {
		s := &p.st[i]
		if s.inflight--; s.done {
			continue
		}
		err := a.err
		if err == nil {
			err = a.ops[si].Err
		}
		if err != nil {
			s.err, s.want, failover = err, true, true
			continue
		}
		if dst := p.ops[i].Dst; dst == nil {
			p.ops[i].Dst = a.ops[si].Dst
		} else {
			copy(dst, a.ops[si].Dst)
		}
		s.done, s.err, served = true, nil, true
		p.open--
		if s.hedged && a.hedge {
			c.hedgeWins.Inc()
		} else if s.hedged {
			c.hedgeWasted.Inc()
		}
	}
	if a.buf != nil {
		bufpool.Put(a.buf)
	}
	if served {
		c.readLat.Observe(a.latency)
	}
	if failover && ctx.Err() == nil {
		p.launch(false)
	}
	return ctx.Err()
}

// launch sends every op that wants an attempt to the next endpoint in
// its order that is fresh for it and admitted this round, one attempt
// per endpoint. A transport swapped underneath since the endpoint's
// admit is not the one the verdict was for. Outside a hedge, an op left
// with no endpoint and nothing in flight is done for the round.
func (p *readPlane) launch(hedge bool) {
	c := p.c
	for i := range p.st {
		s := &p.st[i]
		if !s.want {
			continue
		}
		s.want = false
		for s.pick == 0 && s.tried < len(c.eps) {
			k := (p.first + i + s.tried) % len(c.eps)
			s.tried++
			g := &p.gates[k]
			conn, fresh := c.eps[k].freshFor(p.ops[i].Addr)
			if fresh && g.conn == nil {
				g.conn = conn
				g.ok, g.probe = c.eps[k].admit()
			}
			if fresh && g.ok && g.conn == conn {
				s.pick, g.picked = k+1, true
			}
		}
		if s.pick == 0 && !hedge && s.inflight == 0 {
			if s.err == nil {
				c.noReplicaErrors.Inc()
				s.err = ErrNoReplicas
			}
			s.done = true
			p.open--
		}
	}
	for k := range c.eps {
		if p.gates[k].picked {
			p.start(k, hedge)
		}
	}
}

// start sends endpoint k one attempt carrying every op the launch in
// progress picked it for: a group of one as a READ frame, so netsrv
// keeps re-batching pipelined singles, a larger group as one BATCH_READ.
func (p *readPlane) start(k int, hedge bool) {
	c, g := p.c, &p.gates[k]
	a := &readAttempt{ep: c.eps[k], conn: g.conn, probe: g.probe, hedge: hedge}
	a.idx = a.oneIdx[:0]
	for i := range p.st {
		if s := &p.st[i]; s.pick == k+1 {
			s.pick, s.inflight, s.hedged = 0, s.inflight+1, s.hedged || hedge
			a.idx = append(a.idx, i)
			a.n += max(p.n, len(p.ops[i].Dst)) // p.n is nonzero only for ReadCtx
		}
	}
	g.ok, g.picked = g.ok && !g.probe, false
	if hedge {
		c.hedges.Add(uint64(len(a.idx)))
	}
	a.one[0].Addr, a.ops = p.ops[a.idx[0]].Addr, a.one[:]
	if len(a.idx) > 1 {
		a.buf, a.ops = bufpool.Get(a.n), make([]pcache.ReadOp, len(a.idx))
		off := 0
		for si, i := range a.idx {
			end := off + len(p.ops[i].Dst)
			a.ops[si] = pcache.ReadOp{Addr: p.ops[i].Addr, Dst: a.buf[off:end:end]}
			off = end
		}
	}
	go a.run(p.actx, p.results)
}

// run performs the attempt, settles its breaker bookkeeping, and
// reports back to its round.
func (a *readAttempt) run(ctx context.Context, results chan<- *readAttempt) {
	t0 := time.Now()
	if a.buf == nil {
		a.ops[0].Dst, a.err = a.conn.ReadCtx(ctx, a.ops[0].Addr, a.n)
	} else {
		_, a.err = a.conn.ReadBatchCtx(ctx, a.ops)
	}
	a.latency = time.Since(t0)
	a.ep.settle(ctx, a.conn, a.probe, a.err)
	results <- a
}
