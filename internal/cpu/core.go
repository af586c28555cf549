// Package cpu models the two CMP core microarchitectures of the
// paper's baselines at the level the cache experiments need: a "fat"
// 4-wide out-of-order core with a reorder window, non-blocking loads
// and a 64-entry store queue, and a "lean" 2-wide in-order core with 4
// fine-grain-multithreaded hardware contexts. Cores interact with the
// memory hierarchy only through the MemPort interface; the cycle-level
// simulator in internal/sim implements it with port, bank, and MSHR
// contention.
package cpu

import (
	"fmt"

	"twodcache/internal/workload"
)

// MemPort is the per-core interface to the L1 data cache, offered by
// the simulator each cycle.
type MemPort interface {
	// TryLoad attempts to issue a load this cycle. It returns a
	// completion token and whether the cache accepted the access
	// (a free port and MSHR were available).
	TryLoad(addr uint64) (token uint64, ok bool)
	// LoadDone reports whether the load behind token has completed.
	LoadDone(token uint64) bool
	// TryStore attempts to retire one store from the store queue into
	// the L1 this cycle.
	TryStore(addr uint64) bool
}

// Core is a simulated core: the simulator ticks it once per cycle.
type Core interface {
	// Tick advances one cycle, issuing memory operations through mem.
	Tick(mem MemPort)
	// Committed returns the cumulative number of committed
	// instructions (the IPC numerator).
	Committed() uint64
}

// robKind classifies reorder-buffer entries.
type robKind uint8

const (
	kindPlain robKind = iota
	kindLoad
	kindStore
)

type robEntry struct {
	kind  robKind
	token uint64
	done  bool
}

// FatCore approximates a 4-wide out-of-order superscalar: dispatch runs
// up to Window instructions ahead of commit, loads issue non-blocking
// (bounded by the window and the L1's MSHRs), stores retire into a
// store queue that drains in the background. Commit is in-order and
// stalls on incomplete loads at the head — the mechanism by which L1
// port contention from 2D's read-before-write traffic costs IPC.
type FatCore struct {
	width  int
	window int
	sqCap  int

	trace   *workload.Stream
	rob     []robEntry
	sq      []uint64
	pending *workload.Instr // fetched but not yet dispatched (stall)

	committed    uint64
	sqFullStalls uint64
	portRejects  uint64
}

// NewFatCore builds the fat core: width-wide, with the given reorder
// window and store-queue capacity, consuming the given trace.
func NewFatCore(width, window, sqCap int, trace *workload.Stream) (*FatCore, error) {
	if width <= 0 || window <= 0 || sqCap <= 0 {
		return nil, fmt.Errorf("cpu: invalid fat core parameters %d/%d/%d", width, window, sqCap)
	}
	if trace == nil {
		return nil, fmt.Errorf("cpu: nil trace")
	}
	return &FatCore{width: width, window: window, sqCap: sqCap, trace: trace}, nil
}

// Committed returns the cumulative committed instruction count.
func (c *FatCore) Committed() uint64 { return c.committed }

// SQFullStalls counts dispatch stalls due to a full store queue.
func (c *FatCore) SQFullStalls() uint64 { return c.sqFullStalls }

// PortRejects counts load issues rejected by the L1.
func (c *FatCore) PortRejects() uint64 { return c.portRejects }

// Tick advances the core one cycle.
func (c *FatCore) Tick(mem MemPort) {
	// 1. Drain the store queue in the background (up to two per cycle,
	// matching a dual-ported L1's store bandwidth).
	for n := 0; n < 2 && len(c.sq) > 0; n++ {
		if !mem.TryStore(c.sq[0]) {
			break
		}
		c.sq = c.sq[1:]
	}
	// 2. Resolve outstanding loads.
	for i := range c.rob {
		if c.rob[i].kind == kindLoad && !c.rob[i].done && mem.LoadDone(c.rob[i].token) {
			c.rob[i].done = true
		}
	}
	// 3. Dispatch up to width instructions into the window.
dispatch:
	for n := 0; n < c.width && len(c.rob) < c.window; n++ {
		var in workload.Instr
		if c.pending != nil {
			in = *c.pending
			c.pending = nil
		} else {
			in = c.trace.Next()
		}
		switch {
		case in.IsMem && !in.IsWrite:
			token, ok := mem.TryLoad(in.Addr)
			if !ok {
				c.portRejects++
				c.pending = &in
				break dispatch
			}
			c.rob = append(c.rob, robEntry{kind: kindLoad, token: token})
		case in.IsMem && in.IsWrite:
			if len(c.sq) >= c.sqCap {
				c.sqFullStalls++
				c.pending = &in
				break dispatch
			}
			c.sq = append(c.sq, in.Addr)
			c.rob = append(c.rob, robEntry{kind: kindStore})
		default:
			c.rob = append(c.rob, robEntry{kind: kindPlain})
		}
	}
	// 4. Commit in order.
	for n := 0; n < c.width && len(c.rob) > 0; n++ {
		if c.rob[0].kind == kindLoad && !c.rob[0].done {
			break
		}
		c.rob = c.rob[1:]
		c.committed++
	}
}

var _ Core = (*FatCore)(nil)

// threadCtx is one hardware context of the lean core.
type threadCtx struct {
	trace        *workload.Stream
	blockedToken uint64
	blocked      bool
	pending      *workload.Instr
}

// LeanCore approximates a 2-wide in-order core with fine-grain
// multithreading: each cycle it issues from ready threads round-robin;
// a thread issuing a load blocks until the load completes (the next
// thread hides the latency, as in Niagara-class designs). Stores enter
// a shared store queue drained in the background.
type LeanCore struct {
	width int
	sqCap int

	threads []*threadCtx
	rr      int
	sq      []uint64

	committed    uint64
	sqFullStalls uint64
	portRejects  uint64
}

// NewLeanCore builds the lean core over one trace per hardware thread.
func NewLeanCore(width, sqCap int, traces []*workload.Stream) (*LeanCore, error) {
	if width <= 0 || sqCap <= 0 || len(traces) == 0 {
		return nil, fmt.Errorf("cpu: invalid lean core parameters")
	}
	c := &LeanCore{width: width, sqCap: sqCap}
	for _, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("cpu: nil thread trace")
		}
		c.threads = append(c.threads, &threadCtx{trace: tr})
	}
	return c, nil
}

// Committed returns the cumulative committed instruction count across
// all threads.
func (c *LeanCore) Committed() uint64 { return c.committed }

// SQFullStalls counts issue stalls due to a full store queue.
func (c *LeanCore) SQFullStalls() uint64 { return c.sqFullStalls }

// PortRejects counts load issues rejected by the L1.
func (c *LeanCore) PortRejects() uint64 { return c.portRejects }

// Tick advances the core one cycle.
func (c *LeanCore) Tick(mem MemPort) {
	// Drain one store per cycle (single-ported L1).
	if len(c.sq) > 0 && mem.TryStore(c.sq[0]) {
		c.sq = c.sq[1:]
	}
	// Unblock threads whose loads completed.
	for _, th := range c.threads {
		if th.blocked && mem.LoadDone(th.blockedToken) {
			th.blocked = false
		}
	}
	issued := 0
	// Round-robin over threads; an in-order thread issues at most one
	// instruction per cycle.
	for scan := 0; scan < len(c.threads) && issued < c.width; scan++ {
		th := c.threads[(c.rr+scan)%len(c.threads)]
		if th.blocked {
			continue
		}
		var in workload.Instr
		if th.pending != nil {
			in = *th.pending
			th.pending = nil
		} else {
			in = th.trace.Next()
		}
		switch {
		case in.IsMem && !in.IsWrite:
			token, ok := mem.TryLoad(in.Addr)
			if !ok {
				c.portRejects++
				th.pending = &in
				continue
			}
			th.blocked = true
			th.blockedToken = token
			c.committed++ // load will complete; account at issue
		case in.IsMem && in.IsWrite:
			if len(c.sq) >= c.sqCap {
				c.sqFullStalls++
				th.pending = &in
				continue
			}
			c.sq = append(c.sq, in.Addr)
			c.committed++
		default:
			c.committed++
		}
		issued++
	}
	c.rr = (c.rr + 1) % len(c.threads)
}

var _ Core = (*LeanCore)(nil)
