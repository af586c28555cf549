package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/netsrv"
	"twodcache/internal/pcache"
)

// ReadCtx reads n bytes at addr: the read plane with a batch of one,
// held in the plane's own op array. A length below 1 fails with
// netsrv.ErrBadRequest before anything is allocated or sent. The
// result is allocated before the call, as netsrv's ReadCtx allocates
// its own, and is the one allocation a read makes.
func (c *Client) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: read length %d", netsrv.ErrBadRequest, n)
	}
	p := c.readPlane()
	op := &p.one[0]
	*op = pcache.ReadOp{Addr: addr, Dst: make([]byte, n)}
	_, err := p.read(ctx, p.one[:])
	if err == nil {
		err = op.Err
	}
	dst := op.Dst
	p.release()
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadBatchCtx reads every op through the read plane, so each op is
// hedged, failed over and retried exactly as a ReadCtx of it would be.
// Per-op outcomes land in each op's Err; ops no fresh replica can serve
// fail with ErrNoReplicas. A non-nil error is call-level (closed client
// or expired ctx): no op was served.
func (c *Client) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	p := c.readPlane()
	failed, err = p.read(ctx, ops)
	p.release()
	return failed, err
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
// It reads into a pooled arena it owns, so attempts racing for one op
// never share the caller's Dst: only the winner's bytes land there. Its
// plane reuses it once it has reported back.
type readAttempt struct {
	ep           *endpoint
	conn         Conn
	probe, hedge bool
	idx          []int           // caller op indices
	ops          []pcache.ReadOp // per-op outcomes; Dst cut from buf
	buf          []byte          // the pooled arena
	err          error           // call-level outcome
	latency      time.Duration
	ctx          *attemptCtx
	results      chan<- *readAttempt
}

// attemptCtx is the context a read plane's attempts run under: the
// caller's context for Deadline, Value and Err, with a Done channel of
// its own that the plane closes only when a round ends with attempts
// still in flight (a hedge loser, or work the caller's context or Close
// cut off). A round that sees the caller's context end closes stop after
// it, so an attempt woken by Done finds the caller's error in Err, and a
// loser whose round was won finds context.Canceled.
type attemptCtx struct {
	context.Context
	stop chan struct{}
}

func (a *attemptCtx) Done() <-chan struct{} { return a.stop }

func (a *attemptCtx) Err() error {
	if err := a.Context.Err(); err != nil {
		return err
	}
	select {
	case <-a.stop:
		return context.Canceled
	default:
		return nil
	}
}

// readPlane runs one logical read at a time, touched only by its
// caller's goroutine.
type readPlane struct {
	c       *Client
	ops     []pcache.ReadOp
	one     [1]pcache.ReadOp // ReadCtx's op
	st      []readOp
	gates   []gate
	first   int  // the round's round-robin start
	open    int  // ops of the round not yet done
	sent    int  // attempts of the round not yet reported back
	strays  bool // a round ended with attempts in flight
	actx    *attemptCtx
	results chan *readAttempt
	spare   []*readAttempt // attempts that reported back, for reuse
}

// readPlanes recycles read planes with their per-op state, attempts,
// attempt context and results channel, so a read allocates nothing of
// its own.
var readPlanes = sync.Pool{New: func() any { return new(readPlane) }}

func (c *Client) readPlane() *readPlane {
	p := readPlanes.Get().(*readPlane)
	p.c = c
	return p
}

// release drops p's references to the caller's context and ops and
// recycles it — unless a round left attempts running. Those still hold
// attempts of p's, so p then goes to the GC with them, as netsrv's
// response channels do: only the happy path recycles.
func (p *readPlane) release() {
	if p.strays {
		return
	}
	p.c, p.ops, p.one[0] = nil, nil, pcache.ReadOp{}
	if p.actx != nil {
		p.actx.Context = nil
	}
	readPlanes.Put(p)
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
// remain.
func (p *readPlane) read(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	c := p.c
	if err := c.callErr(ctx); err != nil || len(ops) == 0 {
		return len(ops), err
	}
	c.reads.Add(uint64(len(ops)))
	p.ops = ops
	p.st, p.gates = resize(p.st, len(ops)), resize(p.gates, len(c.eps))
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
	p.first, p.open = int(c.rr.Add(1)), 0
	clear(p.gates)
	for i := range p.st {
		if s := &p.st[i]; attempt == 0 || isRetryable(s.err) {
			*s = readOp{want: true}
			p.open++
		}
	}
	// Sized to the most attempts a round can send (each op tries each
	// endpoint at most once), so a straggler never blocks.
	if need := len(p.ops) * len(c.eps); p.results == nil || cap(p.results) < need {
		p.results = make(chan *readAttempt, need)
	}
	if p.actx == nil {
		p.actx = &attemptCtx{stop: make(chan struct{})}
	}
	p.actx.Context = ctx
	defer p.endRound()
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

// endRound cancels the attempts a round leaves in flight and leaves them
// its attempt context and results channel, so they can never report into
// a later round; the next round makes fresh ones. The caller's context
// has already ended if that is why the round did, so the cancelled
// attempts see its error first.
func (p *readPlane) endRound() {
	if p.sent == 0 {
		return
	}
	close(p.actx.stop)
	p.actx, p.results, p.sent, p.strays = nil, nil, 0, true
}

// settle folds a finished attempt into the ops it carried: an op's
// first success lands its bytes, a failure moves the op on to its next
// endpoint at once. The attempt then goes back to the plane's spares.
func (p *readPlane) settle(ctx context.Context, a *readAttempt) error {
	c := p.c
	p.sent--
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
		copy(p.ops[i].Dst, a.ops[si].Dst)
		s.done, s.err, served = true, nil, true
		p.open--
		if s.hedged && a.hedge {
			c.hedgeWins.Inc()
		} else if s.hedged {
			c.hedgeWasted.Inc()
		}
	}
	bufpool.Put(a.buf)
	if served {
		c.readLat.Observe(a.latency)
	}
	clear(a.ops)
	*a = readAttempt{idx: a.idx[:0], ops: a.ops[:0]}
	p.spare = append(p.spare, a)
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
// progress picked it for, as one ReadBatchCtx into the attempt's pooled
// arena.
func (p *readPlane) start(k int, hedge bool) {
	c, g := p.c, &p.gates[k]
	var a *readAttempt
	if n := len(p.spare); n > 0 {
		a, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		a = new(readAttempt)
	}
	a.ep, a.conn, a.probe, a.hedge = c.eps[k], g.conn, g.probe, hedge
	size := 0
	for i := range p.st {
		if s := &p.st[i]; s.pick == k+1 {
			s.pick, s.inflight, s.hedged = 0, s.inflight+1, s.hedged || hedge
			a.idx = append(a.idx, i)
			size += len(p.ops[i].Dst)
		}
	}
	g.ok, g.picked = g.ok && !g.probe, false
	if hedge {
		c.hedges.Add(uint64(len(a.idx)))
	}
	a.buf = bufpool.Get(size)
	off := 0
	for _, i := range a.idx {
		end := off + len(p.ops[i].Dst)
		a.ops = append(a.ops, pcache.ReadOp{Addr: p.ops[i].Addr, Dst: a.buf[off:end:end]})
		off = end
	}
	a.ctx, a.results = p.actx, p.results
	p.sent++
	goAttempt(a)
}

// run performs the attempt, settles its breaker bookkeeping, and
// reports back to its round. It touches a no more after the report:
// the plane may reuse it at once.
func (a *readAttempt) run() {
	t0 := time.Now()
	_, a.err = a.conn.ReadBatchCtx(a.ctx, a.ops)
	a.latency = time.Since(t0)
	a.ep.settle(a.ctx, a.conn, a.probe, a.err)
	a.results <- a
}
