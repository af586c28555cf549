package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"twodcache/internal/netsrv"
	"twodcache/internal/resilience"
)

// endpoint is one replica: its transport, its health breaker, and the
// set of addrs it is not trusted to serve (missed writes).
type endpoint struct {
	c    *Client
	idx  int
	addr string
	brk  *resilience.HealthBreaker

	mu        sync.Mutex
	conn      Conn           // nil while down
	missed    map[uint64]int // addr → length this replica may be stale for
	redialing bool
}

func newEndpoint(c *Client, idx int, addr string) *endpoint {
	ep := &endpoint{c: c, idx: idx, addr: addr, missed: map[uint64]int{}}
	ep.brk = resilience.NewHealthBreaker(c.cfg.Breaker, nil, func(from, to, reason string) {
		if to == "open" {
			c.breakerTrips.Inc()
		}
	})
	return ep
}

// liveConn returns the current transport or nil.
func (ep *endpoint) liveConn() Conn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.conn
}

// freshFor reports whether ep may serve reads for addr: transport up
// and addr not in the missed set. The returned conn is the one the
// freshness judgement was made against.
func (ep *endpoint) freshFor(addr uint64) (Conn, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.conn == nil {
		return nil, false
	}
	if _, stale := ep.missed[addr]; stale {
		return nil, false
	}
	return ep.conn, true
}

// markMissed records that ep may lack the latest write to addr.
func (ep *endpoint) markMissed(addr uint64, n int) {
	ep.mu.Lock()
	ep.missed[addr] = n
	ep.mu.Unlock()
}

// clearMissed removes addr from the missed set if present — called
// after a successful write or repair of addr to this endpoint.
func (ep *endpoint) clearMissed(addr uint64) {
	ep.mu.Lock()
	delete(ep.missed, addr)
	ep.mu.Unlock()
}

// missedBatch copies up to limit missed addrs for a repair pass.
func (ep *endpoint) missedBatch(limit int) map[uint64]int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.missed) == 0 {
		return nil
	}
	out := make(map[uint64]int, limit)
	for a, n := range ep.missed {
		out[a] = n
		if len(out) >= limit {
			break
		}
	}
	return out
}

// markDown tears down failed if it is still the installed transport and
// starts the redial loop. Racing callers that observed the same dead
// conn converge on one teardown; a caller holding yesterday's conn
// cannot kill today's.
func (ep *endpoint) markDown(failed Conn) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.conn == nil || ep.conn != failed {
		return
	}
	ep.conn.Close()
	ep.conn = nil
	ep.startRedialLocked()
}

// startRedialLocked launches the background reconnect loop if one is
// not already running. Caller holds ep.mu.
func (ep *endpoint) startRedialLocked() {
	if ep.redialing || ep.c.closed.Load() {
		return
	}
	ep.redialing = true
	ep.c.wg.Add(1)
	go ep.redialLoop()
}

// redialLoop reconnects with doubling backoff. On success the endpoint
// resyncs conservatively: every addr the cluster ever wrote lands in
// the missed set, because the client cannot distinguish a network blip
// (replica still has everything) from a restart (replica has nothing).
// Read-repair then drains the set; reads stay correct either way.
func (ep *endpoint) redialLoop() {
	defer ep.c.wg.Done()
	backoff := ep.c.cfg.RedialBackoff
	for {
		select {
		case <-ep.c.done:
			ep.mu.Lock()
			ep.redialing = false
			ep.mu.Unlock()
			return
		case <-time.After(backoff):
		}
		ep.c.redials.Inc()
		conn, err := ep.c.cfg.Dial(ep.addr)
		if err != nil {
			backoff *= 2
			if backoff > 500*time.Millisecond {
				backoff = 500 * time.Millisecond
			}
			continue
		}
		resync := ep.c.writtenSnapshot()
		ep.mu.Lock()
		ep.conn = conn
		for a, n := range resync {
			ep.missed[a] = n
		}
		ep.redialing = false
		ep.mu.Unlock()
		return
	}
}

// admit consults the breaker; the bool reports probe duty.
func (ep *endpoint) admit() (ok, probe bool) {
	switch ep.brk.Admit() {
	case resilience.BreakerRun:
		return true, false
	case resilience.BreakerProbe:
		return true, true
	default:
		return false, false
	}
}

// settle feeds one conn call's outcome to the breaker. The caller's own
// context giving up releases a probe slot without a verdict (it says
// nothing about the replica); a dead transport is torn down for redial.
func (ep *endpoint) settle(ctx context.Context, conn Conn, probe bool, err error) {
	switch {
	case err == nil:
		ep.brk.Record(probe, true)
	case ctxError(ctx, err):
		ep.brk.Release(probe)
	default:
		ep.brk.Record(probe, false)
		if isTransportDead(err) {
			ep.markDown(conn)
		}
	}
}

// isTransportDead classifies errors that mean the connection itself is
// gone (as opposed to the replica answering with a failure).
func isTransportDead(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, netsrv.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// isRetryable classifies failures worth another cluster-level
// attempt after backoff: transient replica states and transport loss.
// Caller-context errors and data errors are final (uncorrectable data
// is handled by failover to another replica, not by waiting).
func isRetryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, resilience.ErrRecoveryInProgress),
		errors.Is(err, netsrv.ErrDraining),
		errors.Is(err, ErrNoReplicas),
		isTransportDead(err):
		return true
	}
	return false
}

// ctxError reports whether err is the caller's own context giving up —
// a failure that says nothing about replica health.
func ctxError(ctx context.Context, err error) bool {
	return ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}
