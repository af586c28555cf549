package cluster

import (
	"context"
	"time"
)

// repairTimeout bounds one repair copy (read from a fresh replica plus
// write to the stale one) so a wedged replica cannot pin a stripe lock.
const repairTimeout = 250 * time.Millisecond

// repairLoop periodically drains every endpoint's missed set by
// copying the authoritative value from a fresh replica. Repair runs
// under the same per-addr stripe locks writes hold, so a repair can
// never interleave with a newer write and resurrect an old value — the
// classic read-repair hazard.
func (c *Client) repairLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.RepairInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.repairPass()
		}
	}
}

// repairPass repairs up to RepairBatch addrs per endpoint.
func (c *Client) repairPass() {
	for _, ep := range c.eps {
		batch := ep.missedBatch(c.cfg.RepairBatch)
		for addr, n := range batch {
			select {
			case <-c.done:
				return
			default:
			}
			c.repairAddr(ep, addr, n)
		}
	}
}

// repairAddr copies addr from a fresh replica onto stale. Failures
// leave addr in the missed set for the next pass; only a confirmed
// write clears it.
func (c *Client) repairAddr(stale *endpoint, addr uint64, n int) {
	st := c.stripe(addr)
	st.Lock()
	defer st.Unlock()

	// A write may have raced the batch copy and already refreshed this
	// replica; repairing again would be wasted but harmless. Skip.
	stale.mu.Lock()
	_, still := stale.missed[addr]
	conn := stale.conn
	stale.mu.Unlock()
	if !still || conn == nil {
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
	defer cancel()
	data, err := c.readFreshExcluding(ctx, stale, addr, n)
	if err != nil {
		return
	}
	if err := conn.WriteCtx(ctx, addr, data); err != nil {
		if isTransportDead(err) {
			stale.markDown(conn)
		}
		return
	}
	stale.clearMissed(addr)
	c.readRepairs.Inc()
}

// readFreshExcluding reads addr from any fresh endpoint other than
// skip — a plain single-attempt read (no hedging: repair is background
// work and must not compete with foreground traffic for extra replica
// slots).
func (c *Client) readFreshExcluding(ctx context.Context, skip *endpoint, addr uint64, n int) ([]byte, error) {
	var lastErr error = ErrNoReplicas
	for _, ep := range c.eps {
		if ep == skip {
			continue
		}
		conn, fresh := ep.freshFor(addr)
		if !fresh {
			continue
		}
		ok, probe := ep.admit()
		if !ok {
			continue
		}
		data, err := conn.ReadCtx(ctx, addr, n)
		ep.settle(ctx, conn, probe, err)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
