package pcache

// Batched accesses: many reads or writes served in one pass, grouped
// by bank and line so each bank lock is taken once per batch and each
// distinct line is tag-probed, checked and moved through its protected
// array once, however many ops touch it. These are the cache's only
// data calls — a single access is a batch of one — and the sharded
// store's ReadBatch/WriteBatch amortisation rides on them: the
// per-access costs k separate calls pay k times — lock acquisition,
// tag lookup, the horizontal-code check of every word in the line, and
// (for writes) the vertical-parity delta updates of a full line store
// — are paid once per distinct line instead.

import (
	"cmp"
	"slices"
	"sync"
)

// ReadOp is one read of a batch: Dst receives len(Dst) bytes at Addr
// (the span must not cross a line boundary), and Err receives the
// per-op outcome. An error satisfying errors.Is(err, ErrUncorrectable)
// means the 2D coverage was exceeded (machine check); errors.As to
// *UncorrectableError locates it. Err is overwritten on every batch
// call.
type ReadOp struct {
	Addr uint64
	Dst  []byte
	Err  error
}

// WriteOp is one write of a batch: len(Data) bytes are stored at Addr
// (the span must not cross a line boundary), write-back — the line is
// marked dirty in the protected tag store — and Err receives the per-op
// outcome. Err is overwritten on every batch call.
type WriteOp struct {
	Addr uint64
	Data []byte
	Err  error
}

// idxPool recycles the per-batch index scratch so steady-state batch
// calls allocate nothing per op. The slice travels inside a pooled
// holder struct to avoid boxing its header on every Put.
var idxPool = sync.Pool{New: func() any { return new(idxScratch) }}

type idxScratch struct{ idx []int }

// batchCmp orders two addresses by (bank, line) — the batch iteration
// order: one lock acquisition per bank run, one tag probe per line
// group.
func (c *Cache) batchCmp(aa, ab uint64) int {
	la, lb := c.lineAddr(aa), c.lineAddr(ab)
	if r := cmp.Compare(c.setOf(la)/c.setsPerBank, c.setOf(lb)/c.setsPerBank); r != 0 {
		return r
	}
	return cmp.Compare(la, lb)
}

// readBatchOrder validates every op's span, stamps per-op errors, and
// returns the surviving op indices (appended to idx) sorted by (bank,
// line). The sort is stable, so ops on the same line keep their batch
// order — overlapping same-line writes apply exactly as serial issue
// would.
func (c *Cache) readBatchOrder(idx []int, ops []ReadOp) ([]int, int) {
	failed := 0
	for i := range ops {
		if err := c.checkSpan(ops[i].Addr, len(ops[i].Dst)); err != nil {
			ops[i].Err = err
			failed++
			continue
		}
		ops[i].Err = nil
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return c.batchCmp(ops[a].Addr, ops[b].Addr)
	})
	return idx, failed
}

// writeBatchOrder is readBatchOrder for write ops.
func (c *Cache) writeBatchOrder(idx []int, ops []WriteOp) ([]int, int) {
	failed := 0
	for i := range ops {
		if err := c.checkSpan(ops[i].Addr, len(ops[i].Data)); err != nil {
			ops[i].Err = err
			failed++
			continue
		}
		ops[i].Err = nil
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return c.batchCmp(ops[a].Addr, ops[b].Addr)
	})
	return idx, failed
}

// ReadBatch serves every op, grouped by bank and line: one bank lock
// acquisition per bank touched, one tag lookup and one protected line
// read-out per distinct line. Every op reads exactly the bytes serial
// issue would read; ops on the same line are served in batch order.
// Ops on different lines are reordered by (bank, line), so replacement
// decisions — and therefore the hit/miss split and eviction timing —
// may differ from strict serial issue; cached-plus-backing content
// never does. A group sharing a failing line reports the failure on
// every op while detecting it once. Per-op outcomes land in each op's
// Err field; the return value counts failed ops. Safe for concurrent
// use; ops in one batch must not be aliased by another concurrent
// batch.
func (c *Cache) ReadBatch(ops []ReadOp) (failed int) {
	sc := idxPool.Get().(*idxScratch)
	defer idxPool.Put(sc)
	var idx []int
	idx, failed = c.readBatchOrder(sc.idx[:0], ops)
	sc.idx = idx[:0]
	for start := 0; start < len(idx); {
		line := c.lineAddr(ops[idx[start]].Addr)
		b, _ := c.bankOf(c.setOf(line))
		end := start
		for end < len(idx) {
			l := c.lineAddr(ops[idx[end]].Addr)
			if bb, _ := c.bankOf(c.setOf(l)); bb != b {
				break
			}
			end++
		}
		failed += c.readBankRun(b, ops, idx[start:end])
		start = end
	}
	return failed
}

// readBankRun serves one bank's slice of the batch under a single
// lock acquisition.
func (c *Cache) readBankRun(b *bank, ops []ReadOp, run []int) (failed int) {
	b.accesses.Add(uint64(len(run)))
	b.mu.Lock()
	defer b.mu.Unlock()
	for start := 0; start < len(run); {
		line := c.lineAddr(ops[run[start]].Addr)
		end := start
		for end < len(run) && c.lineAddr(ops[run[end]].Addr) == line {
			end++
		}
		failed += c.readLineGroupLocked(b, line, ops, run[start:end])
		start = end
	}
	return failed
}

// groupWayLocked finds or fills the way holding line for a group of k
// ops on it, with serial-issue accounting: on a hit every op hits; on a
// miss the first op counts the miss before the fill is attempted and
// the rest hit the line it brought in. ok is false when every way of
// the set is decommissioned: all k ops are then counted as bypassed
// misses and the caller serves them from backing. The caller has
// already counted the k accesses.
func (c *Cache) groupWayLocked(b *bank, ls int, line uint64, k uint64) (way int, ok bool, err error) {
	way, err = c.lookupLocked(b, ls, c.tagOf(line))
	if err != nil {
		return 0, false, err
	}
	if way >= 0 {
		b.hits.Add(k)
		return way, true, nil
	}
	c.misses.Add(1)
	way, ok, err = c.fillLocked(b, ls, line)
	switch {
	case err != nil:
		return 0, false, err
	case !ok:
		c.misses.Add(k - 1)
		c.bypassed.Add(k)
		return 0, false, nil
	}
	b.hits.Add(k - 1)
	return way, true, nil
}

// readLineGroupLocked serves every op of one line with a single tag
// lookup and a single protected read-out; a decommissioned set serves
// the whole group from one backing fetch. Failures land on every op of
// the group. A single read is a group of one.
func (c *Cache) readLineGroupLocked(b *bank, line uint64, ops []ReadOp, group []int) int {
	ls := c.setOf(line) % c.setsPerBank
	fail := func(err error) int {
		for _, i := range group {
			ops[i].Err = err
		}
		return len(group)
	}
	way, ok, err := c.groupWayLocked(b, ls, line, uint64(len(group)))
	if err != nil {
		return fail(err)
	}
	src := b.lineBuf
	if !ok {
		src = c.backing.ReadLine(line << c.lineShift)
	} else {
		b.touch(ls, way, c.cfg.Ways)
		if err := c.readLineLocked(b, ls, way, b.lineBuf); err != nil {
			return fail(err)
		}
	}
	for _, i := range group {
		off := int(ops[i].Addr) & (c.cfg.LineBytes - 1)
		copy(ops[i].Dst, src[off:off+len(ops[i].Dst)])
	}
	return 0
}

// WriteBatch stores every op, grouped by bank and line: one bank lock
// acquisition per bank touched and, per distinct line, one tag lookup,
// one read-modify-write of the protected line (one set of
// vertical-parity delta updates) and one dirty-tag store, however many
// ops patch that line. Ops on the same line apply in batch order; ops
// on different lines are reordered by (bank, line), with the same
// content-equivalence guarantee as ReadBatch. A group sharing a
// failing line reports the failure on every op while detecting it
// once. Per-op outcomes land in each op's Err field; the return value
// counts failed ops. Safe for concurrent use.
func (c *Cache) WriteBatch(ops []WriteOp) (failed int) {
	sc := idxPool.Get().(*idxScratch)
	defer idxPool.Put(sc)
	var idx []int
	idx, failed = c.writeBatchOrder(sc.idx[:0], ops)
	sc.idx = idx[:0]
	for start := 0; start < len(idx); {
		line := c.lineAddr(ops[idx[start]].Addr)
		b, _ := c.bankOf(c.setOf(line))
		end := start
		for end < len(idx) {
			l := c.lineAddr(ops[idx[end]].Addr)
			if bb, _ := c.bankOf(c.setOf(l)); bb != b {
				break
			}
			end++
		}
		failed += c.writeBankRun(b, ops, idx[start:end])
		start = end
	}
	return failed
}

func (c *Cache) writeBankRun(b *bank, ops []WriteOp, run []int) (failed int) {
	b.accesses.Add(uint64(len(run)))
	b.mu.Lock()
	defer b.mu.Unlock()
	for start := 0; start < len(run); {
		line := c.lineAddr(ops[run[start]].Addr)
		end := start
		for end < len(run) && c.lineAddr(ops[run[end]].Addr) == line {
			end++
		}
		failed += c.writeLineGroupLocked(b, line, ops, run[start:end])
		start = end
	}
	return failed
}

// writeLineGroupLocked applies every op of one line, in group order,
// with one read-modify-write of the protected line and one dirty-tag
// store; a decommissioned set takes one read-modify-write through to
// backing instead. Failures land on every op of the group. A single
// write is a group of one.
func (c *Cache) writeLineGroupLocked(b *bank, line uint64, ops []WriteOp, group []int) int {
	ls := c.setOf(line) % c.setsPerBank
	fail := func(err error) int {
		for _, i := range group {
			ops[i].Err = err
		}
		return len(group)
	}
	way, ok, err := c.groupWayLocked(b, ls, line, uint64(len(group)))
	if err != nil {
		return fail(err)
	}
	if !ok {
		buf := c.backing.ReadLine(line << c.lineShift)
		for _, i := range group {
			off := int(ops[i].Addr) & (c.cfg.LineBytes - 1)
			copy(buf[off:], ops[i].Data)
		}
		c.backing.WriteLine(line<<c.lineShift, buf)
		return 0
	}
	b.touch(ls, way, c.cfg.Ways)
	if err := c.readLineLocked(b, ls, way, b.lineBuf); err != nil {
		return fail(err)
	}
	for _, i := range group {
		off := int(ops[i].Addr) & (c.cfg.LineBytes - 1)
		copy(b.lineBuf[off:], ops[i].Data)
	}
	if err := c.writeLineLocked(b, ls, way, b.lineBuf); err != nil {
		return fail(err)
	}
	if err := c.writeTagLocked(b, ls, way, tagValidBit|tagDirtyBit|c.tagOf(line)<<tagShift); err != nil {
		return fail(err)
	}
	return 0
}
