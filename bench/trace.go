package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twodcache"
)

// Span names. Each layer boundary has a read and a write name; the
// layer of a name is name/2.
type spanName uint8

const (
	spanClientRead spanName = iota // the bench's calls into the client under test
	spanClientWrite
	spanConnRead // the cluster's calls into one replica's Conn
	spanConnWrite
	spanStoreRead // netsrv's calls into the store
	spanStoreWrite
	spanBackingRead // pcache's calls into the backing
	spanBackingWrite
)

var spanNames = [...]string{
	"client.read", "client.write", "conn.read", "conn.write",
	"store.read", "store.write", "backing.read", "backing.write",
}

const (
	layerClient = iota
	layerConn
	layerStore
	layerBacking
	numLayers
)

// spanCap bounds the spans kept for the spans file (10 MiB of them). The
// per-layer metrics come from running sums and cover every span.
const spanCap = 1 << 18

// spanRec is one finished span as written to the spans file. Times are
// nanoseconds since the tracer was created; id is the slot index + 1.
type spanRec struct {
	name       spanName
	ops        int32
	id, parent uint64
	start, end int64
}

// layerSum is the running total of one layer's spans.
type layerSum struct {
	calls, ops, ns, opNs atomic.Int64
}

func (l *layerSum) meanUs() float64 {
	if c := l.calls.Load(); c > 0 {
		return float64(l.ns.Load()) / float64(c) / 1e3
	}
	return 0
}

// tracer records spans at the layer boundaries the bench can reach
// from outside the program: client calls, cluster Conn calls, store
// calls and backing calls, plus scrub and recovery events. It only
// records while on, which the run switches for the measured window.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	layers [numLayers]layerSum
	// clusterSelfNs sums, over client calls that fan out to Conn calls,
	// the call's duration minus the union of its children.
	clusterSelfNs atomic.Int64

	busyMu     sync.Mutex
	busyActive int
	busySince  int64
	storeBusy  int64 // ns during which at least one store call ran

	scrubPasses  atomic.Int64
	scrubNs      atomic.Int64
	arrayRecNs   atomic.Int64
	slotsTaken   atomic.Int64
	spans        []spanRec
	inflight     sync.WaitGroup
	clippedSpans atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]spanRec, spanCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// liveParent is a client call whose Conn calls are its children. It
// travels to them in the context.
type liveParent struct {
	mu   sync.Mutex
	id   uint64
	end  int64      // 0 while running
	kids [][2]int64 // [start, end]; end 0 while running
}

type parentKey struct{}

// span is an open span. A zero span (off) records nothing.
type span struct {
	on     bool
	name   spanName
	ops    int32
	slot   int64
	start  int64
	parent *liveParent // set on children
	kid    int
	live   *liveParent // set on parents
}

// begin opens a span; ctx supplies the parent, if any.
func (t *tracer) begin(ctx context.Context, name spanName, ops int) span {
	if !t.on.Load() {
		return span{}
	}
	t.inflight.Add(1)
	sp := span{on: true, name: name, ops: int32(ops), slot: t.slotsTaken.Add(1) - 1, start: t.now()}
	if p, ok := ctx.Value(parentKey{}).(*liveParent); ok {
		sp.parent = p
		p.mu.Lock()
		sp.kid = len(p.kids)
		p.kids = append(p.kids, [2]int64{sp.start, 0})
		p.mu.Unlock()
	}
	if name/2 == layerStore {
		t.busyMu.Lock()
		if t.busyActive == 0 {
			t.busySince = sp.start
		}
		t.busyActive++
		t.busyMu.Unlock()
	}
	return sp
}

// beginParent opens a client span whose Conn calls become its children.
func (t *tracer) beginParent(ctx context.Context, name spanName, ops int) (span, context.Context) {
	sp := t.begin(ctx, name, ops)
	if !sp.on {
		return sp, ctx
	}
	sp.live = &liveParent{id: uint64(sp.slot + 1)}
	return sp, context.WithValue(ctx, parentKey{}, sp.live)
}

func (t *tracer) end(sp span) {
	if !sp.on {
		return
	}
	var end int64
	if sp.live != nil {
		var covered int64
		end, covered = sp.live.close(t)
		t.clusterSelfNs.Add(end - sp.start - covered)
	} else {
		end = t.now()
	}
	rec := spanRec{name: sp.name, ops: sp.ops, id: uint64(sp.slot + 1), start: sp.start, end: end}
	if p := sp.parent; p != nil {
		rec.parent = p.id
		p.mu.Lock()
		p.kids[sp.kid][1] = end
		if p.end != 0 && end > p.end {
			// The parent stopped waiting before this child ended (a hedge
			// the winner cancelled, or one scheduled late). The spans
			// file gets the child clipped to the parent's end, where the
			// request stopped paying for it; the layer sums below keep
			// the real interval.
			rec.start, rec.end = min(rec.start, p.end), p.end
			t.clippedSpans.Add(1)
		}
		p.mu.Unlock()
	}
	if sp.name/2 == layerStore {
		t.busyMu.Lock()
		t.busyActive--
		if t.busyActive == 0 {
			t.storeBusy += end - t.busySince
		}
		t.busyMu.Unlock()
	}
	l := &t.layers[sp.name/2]
	d := end - sp.start
	l.calls.Add(1)
	l.ops.Add(int64(sp.ops))
	l.ns.Add(d)
	l.opNs.Add(d * int64(sp.ops))
	if sp.slot < spanCap {
		t.spans[sp.slot] = rec
	}
	t.inflight.Done()
}

// close ends the parent now and returns its end and how much of
// [start, end] its children covered; children still running count up
// to end. The clock is read under the parent's lock, so a child either
// ends before the parent or finds it closed.
func (p *liveParent) close(t *tracer) (end, covered int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	end = t.now()
	p.end = end
	iv := make([][2]int64, len(p.kids))
	for i, k := range p.kids {
		k[0] = min(k[0], end)
		if k[1] == 0 || k[1] > end {
			k[1] = end
		}
		iv[i] = k
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var curS, curE int64
	for i, k := range iv {
		if i == 0 || k[0] > curE {
			covered += curE - curS
			curS, curE = k[0], k[1]
		} else if k[1] > curE {
			curE = k[1]
		}
	}
	return end, covered + curE - curS
}

// storeBusyNs is how long at least one store call was running.
func (t *tracer) storeBusyNs() int64 {
	t.busyMu.Lock()
	defer t.busyMu.Unlock()
	return t.storeBusy
}

// recorded returns the spans kept for the file, once every span has
// ended.
func (t *tracer) recorded() []spanRec {
	t.inflight.Wait()
	n := t.slotsTaken.Load()
	if n > spanCap {
		n = spanCap
	}
	return t.spans[:n]
}

// checkNesting reports the first child span that does not lie inside
// its parent.
func checkNesting(spans []spanRec) error {
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		if s.parent > uint64(len(spans)) {
			return fmt.Errorf("span %d: parent %d not recorded", s.id, s.parent)
		}
		p := spans[s.parent-1]
		if s.start < p.start || s.end > p.end || s.start > s.end {
			return fmt.Errorf("span %d [%d,%d] outside parent %d [%d,%d]", s.id, s.start, s.end, p.id, p.start, p.end)
		}
	}
	return nil
}

func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"ops":%d}`+"\n",
			spanNames[s.name], s.id, s.parent, s.start, s.end, s.ops)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators on the public hooks ------------------------------------

// tracedClient times the bench's calls into the client under test.
// With parents set (the cluster), the calls carry their span in the
// context so the cluster's Conn calls become its children.
type tracedClient struct {
	client
	t       *tracer
	parents bool
}

func (c *tracedClient) open(ctx context.Context, name spanName, ops int) (span, context.Context) {
	if c.parents {
		return c.t.beginParent(ctx, name, ops)
	}
	return c.t.begin(ctx, name, ops), ctx
}

func (c *tracedClient) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	sp, ctx := c.open(ctx, spanClientRead, 1)
	out, err := c.client.ReadCtx(ctx, addr, n)
	c.t.end(sp)
	return out, err
}

func (c *tracedClient) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	sp, ctx := c.open(ctx, spanClientWrite, 1)
	err := c.client.WriteCtx(ctx, addr, data)
	c.t.end(sp)
	return err
}

func (c *tracedClient) ReadBatchCtx(ctx context.Context, ops []twodcache.BatchReadOp) (int, error) {
	sp, ctx := c.open(ctx, spanClientRead, len(ops))
	n, err := c.client.ReadBatchCtx(ctx, ops)
	c.t.end(sp)
	return n, err
}

func (c *tracedClient) WriteBatchCtx(ctx context.Context, ops []twodcache.BatchWriteOp) (int, error) {
	sp, ctx := c.open(ctx, spanClientWrite, len(ops))
	n, err := c.client.WriteBatchCtx(ctx, ops)
	c.t.end(sp)
	return n, err
}

// tracedConn times the cluster's calls into one replica (installed
// through ClusterConfig.Dial).
type tracedConn struct {
	twodcache.ClusterConn
	t *tracer
}

func (c *tracedConn) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	sp := c.t.begin(ctx, spanConnRead, 1)
	out, err := c.ClusterConn.ReadCtx(ctx, addr, n)
	c.t.end(sp)
	return out, err
}

func (c *tracedConn) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	sp := c.t.begin(ctx, spanConnWrite, 1)
	err := c.ClusterConn.WriteCtx(ctx, addr, data)
	c.t.end(sp)
	return err
}

func (c *tracedConn) ReadBatchCtx(ctx context.Context, ops []twodcache.BatchReadOp) (int, error) {
	sp := c.t.begin(ctx, spanConnRead, len(ops))
	n, err := c.ClusterConn.ReadBatchCtx(ctx, ops)
	c.t.end(sp)
	return n, err
}

func (c *tracedConn) WriteBatchCtx(ctx context.Context, ops []twodcache.BatchWriteOp) (int, error) {
	sp := c.t.begin(ctx, spanConnWrite, len(ops))
	n, err := c.ClusterConn.WriteBatchCtx(ctx, ops)
	c.t.end(sp)
	return n, err
}

// tracedStore times netsrv's data-path calls into the store (handed to
// NewNetServer in place of the store). The bench sends no deadlines, so
// netsrv serves every frame through the plain batch forms. The server
// cannot see client request ids, so these spans have no parent.
type tracedStore struct {
	twodcache.CacheStore
	t *tracer
}

func (s *tracedStore) ReadBatch(ops []twodcache.BatchReadOp) int {
	sp := s.t.begin(context.Background(), spanStoreRead, len(ops))
	n := s.CacheStore.ReadBatch(ops)
	s.t.end(sp)
	return n
}

func (s *tracedStore) WriteBatch(ops []twodcache.BatchWriteOp) int {
	sp := s.t.begin(context.Background(), spanStoreWrite, len(ops))
	n := s.CacheStore.WriteBatch(ops)
	s.t.end(sp)
	return n
}

// tracedBacking times pcache's line fills and writebacks.
type tracedBacking struct {
	twodcache.CacheBacking
	t *tracer
}

func (b *tracedBacking) ReadLine(addr uint64) []byte {
	sp := b.t.begin(context.Background(), spanBackingRead, 1)
	out := b.CacheBacking.ReadLine(addr)
	b.t.end(sp)
	return out
}

func (b *tracedBacking) WriteLine(addr uint64, data []byte) {
	sp := b.t.begin(context.Background(), spanBackingWrite, 1)
	b.CacheBacking.WriteLine(addr, data)
	b.t.end(sp)
}

// storeSink receives the store's events: scrub sweeps.
type storeSink struct {
	twodcache.NopEventSink
	t *tracer
}

func (s storeSink) ScrubPass(_ int, _ bool, _ int, d time.Duration) {
	if s.t.on.Load() {
		s.t.scrubPasses.Add(1)
		s.t.scrubNs.Add(int64(d))
	}
}

// arraySink receives one 2D array's recovery events, demand-driven and
// scrub-driven alike.
type arraySink struct {
	twodcache.NopEventSink
	t *tracer
}

func (s arraySink) RecoveryEnd(_ string, _, _ int, _ bool, d time.Duration) {
	if s.t.on.Load() {
		s.t.arrayRecNs.Add(int64(d))
	}
}
