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

func (o *ReadOp) span() (uint64, int)  { return o.Addr, len(o.Dst) }
func (o *WriteOp) span() (uint64, int) { return o.Addr, len(o.Data) }
func (o *ReadOp) setErr(err error)     { o.Err = err }
func (o *WriteOp) setErr(err error)    { o.Err = err }

// op is what the batch skeleton needs of *ReadOp and *WriteOp.
type op[T any] interface {
	*T
	span() (addr uint64, n int)
	setErr(error)
}

// lineKey is one valid op of a batch, keyed by its line: the skeleton
// sorts these rather than the ops, so a comparison reads no op.
type lineKey struct {
	line uint64
	i    int // the op's index in the batch
}

// keyPool recycles the per-batch key scratch so steady-state batch
// calls allocate nothing per op. The slice travels inside a pooled
// holder struct to avoid boxing its header on every Put.
var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

type keyScratch struct{ keys []lineKey }

// batch is ReadBatch's and WriteBatch's one body. It checks every op's
// span, stamping per-op errors, and sorts the valid ops stably by
// (bank, line), so ops on one line keep their batch order —
// overlapping same-line writes apply exactly as serial issue would.
// It then takes each bank's lock once for its run of ops and calls
// serve once per line group, the ops of the run that touch one line;
// when serve fails, every op of the group gets its error. serve is a
// method expression, not a method value, so nothing escapes.
func batch[T any, P op[T]](c *Cache, ops []T, serve func(*Cache, *bank, uint64, []T, []lineKey) error) (failed int) {
	sc := keyPool.Get().(*keyScratch)
	defer keyPool.Put(sc)
	keys := sc.keys[:0]
	for i := range ops {
		addr, n := P(&ops[i]).span()
		err := c.checkSpan(addr, n)
		P(&ops[i]).setErr(err)
		if err != nil {
			failed++
			continue
		}
		keys = append(keys, lineKey{c.lineAddr(addr), i})
	}
	sc.keys = keys
	slices.SortStableFunc(keys, func(a, b lineKey) int {
		if r := cmp.Compare(c.bankIndex(a.line), c.bankIndex(b.line)); r != 0 {
			return r
		}
		return cmp.Compare(a.line, b.line)
	})
	for start := 0; start < len(keys); {
		bi := c.bankIndex(keys[start].line)
		end := start
		for end < len(keys) && c.bankIndex(keys[end].line) == bi {
			end++
		}
		failed += serveBankRun[T, P](c, c.banks[bi], ops, keys[start:end], serve)
		start = end
	}
	return failed
}

// serveBankRun serves one bank's run of a batch under a single lock
// acquisition, one serve call per line group.
func serveBankRun[T any, P op[T]](c *Cache, b *bank, ops []T, run []lineKey, serve func(*Cache, *bank, uint64, []T, []lineKey) error) (failed int) {
	b.accesses.Add(uint64(len(run)))
	b.mu.Lock()
	defer b.mu.Unlock()
	for start := 0; start < len(run); {
		end := start
		for end < len(run) && run[end].line == run[start].line {
			end++
		}
		group := run[start:end]
		if err := serve(c, b, group[0].line, ops, group); err != nil {
			for _, k := range group {
				P(&ops[k.i]).setErr(err)
			}
			failed += len(group)
		}
		start = end
	}
	return failed
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
	return batch(c, ops, (*Cache).readLineGroupLocked)
}

// WriteBatch stores every op, grouped by bank and line: one bank lock
// acquisition per bank touched and, per distinct line, one tag lookup,
// one read-modify-write of the protected line (one set of
// vertical-parity delta updates) and at most one tag store, however
// many ops patch that line. Ops on the same line apply in batch order;
// ops on different lines are reordered by (bank, line), with the same
// content-equivalence guarantee as ReadBatch. A group sharing a
// failing line reports the failure on every op while detecting it
// once. Per-op outcomes land in each op's Err field; the return value
// counts failed ops. Safe for concurrent use.
func (c *Cache) WriteBatch(ops []WriteOp) (failed int) {
	return batch(c, ops, (*Cache).writeLineGroupLocked)
}

// readLineGroupLocked serves every op of one line from the bank's
// staging buffer, filled by one protected read-out on a hit, by the
// fill's fetch on a miss, and by one backing fetch when the set is
// decommissioned. A single read is a group of one.
func (c *Cache) readLineGroupLocked(b *bank, line uint64, ops []ReadOp, group []lineKey) error {
	ls := c.setOf(line) % c.setsPerBank
	way, t, hit, err := c.lookupLocked(b, ls, c.tagOf(line), len(group))
	switch {
	case err != nil:
	case hit:
		err = c.readLineLocked(b, ls, way, b.lineBuf)
	case way < 0:
		ReadLineInto(c.backing, line<<c.lineShift, b.lineBuf)
	default:
		err = c.fillLocked(b, ls, way, t, line, nil, group)
	}
	if err != nil {
		return err
	}
	for _, k := range group {
		off := int(ops[k.i].Addr) & (c.cfg.LineBytes - 1)
		copy(ops[k.i].Dst, b.lineBuf[off:])
	}
	return nil
}

// writeLineGroupLocked applies every op of one line, in group order.
// A hit makes one read-modify-write of the protected line and marks a
// clean line dirty; a miss installs the merge with the fill; a
// decommissioned set takes the merge through to backing. A single
// write is a group of one.
func (c *Cache) writeLineGroupLocked(b *bank, line uint64, ops []WriteOp, group []lineKey) error {
	ls := c.setOf(line) % c.setsPerBank
	way, t, hit, err := c.lookupLocked(b, ls, c.tagOf(line), len(group))
	switch {
	case err != nil:
		return err
	case way < 0:
		c.mergeLocked(b, line, ops, group)
		c.backing.WriteLine(line<<c.lineShift, b.lineBuf)
		return nil
	case !hit:
		return c.fillLocked(b, ls, way, t, line, ops, group)
	}
	if err := c.readLineLocked(b, ls, way, b.lineBuf); err != nil {
		return err
	}
	c.patch(b.lineBuf, ops, group)
	if err := c.writeLineLocked(b, ls, way, b.lineBuf); err != nil {
		return err
	}
	if t&tagDirtyBit != 0 {
		return nil
	}
	return c.writeTagLocked(b, ls, way, t|tagDirtyBit)
}

// mergeLocked leaves in lineBuf the line with the group's ops patched
// over it in order. It fetches the line only when no op covers it
// whole: a whole-line op starts at offset 0 (its span check passed),
// so patching in order overwrites every byte a fetch would bring in.
func (c *Cache) mergeLocked(b *bank, line uint64, ops []WriteOp, group []lineKey) {
	if !c.wholeLine(ops, group) {
		ReadLineInto(c.backing, line<<c.lineShift, b.lineBuf)
	}
	c.patch(b.lineBuf, ops, group)
}

// wholeLine reports whether an op of the group writes the whole line.
func (c *Cache) wholeLine(ops []WriteOp, group []lineKey) bool {
	for _, k := range group {
		if len(ops[k.i].Data) == c.cfg.LineBytes {
			return true
		}
	}
	return false
}

// patch copies each op's data into the line image dst at the op's line
// offset, in group order.
func (c *Cache) patch(dst []byte, ops []WriteOp, group []lineKey) {
	for _, k := range group {
		off := int(ops[k.i].Addr) & (c.cfg.LineBytes - 1)
		copy(dst[off:], ops[k.i].Data)
	}
}
