package netsrv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/store"
)

// Server metric names.
const (
	metricConns          = "net_conns"
	metricConnsTotal     = "net_conns_total"
	metricConnsRefused   = "net_conns_refused_total"
	metricRequests       = "net_requests_total"
	metricBatches        = "net_batches_total"
	metricBatchOps       = "net_batch_ops_total"
	metricBytesIn        = "net_bytes_in_total"
	metricBytesOut       = "net_bytes_out_total"
	metricReqSeconds     = "net_req_seconds"
	metricBatchSeconds   = "net_batch_seconds"
	metricDeadlineAborts = "net_deadline_aborts_total"
)

// Config assembles a Server.
type Config struct {
	// Store is the storage engine served over the wire — one resilience
	// engine or a sharded router, unchanged. Required.
	Store store.Store
	// BatchSize is the in-flight accumulation threshold: the ops of a
	// connection's pipelined BATCH_READ/BATCH_WRITE frames are gathered
	// into one store batch call once this many are pending, or sooner
	// when the pipe goes idle. A frame's ops are never split, so a frame
	// of BatchSize ops or more runs alone. Zero selects 32; 1 gives every
	// frame a store call of its own.
	BatchSize int
	// RespQueue bounds each connection's response queue (frames). A
	// client that stops draining responses stalls its own reader once
	// the queue fills — that is the backpressure mechanism. Zero
	// selects 128.
	RespQueue int
	// MaxConns caps concurrent connections; further accepts are closed
	// immediately and counted in net_conns_refused_total. Zero means
	// unlimited.
	MaxConns int
	// Metrics is the registry NewServer registers the server's net_*
	// metrics into, once; serve it to read them. Nil selects a private
	// registry that nothing reads.
	Metrics *obs.Registry
	// EpochOf, when non-nil, serves EPOCH frames: it must return the
	// loss epoch of the set owning addr (the soak oracle's primitive).
	// Nil answers EPOCH with stUnsupported.
	EpochOf func(addr uint64) uint64
}

// Server serves the binary protocol over TCP, riding the store's
// batch-amortised path. Safe for concurrent use; one Server may serve
// several listeners.
type Server struct {
	st        store.Store
	batchSize int
	respQueue int
	maxConns  int
	epochOf   func(uint64) uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool
	connWG    sync.WaitGroup

	connsGauge     *obs.Gauge
	connsTotal     *obs.Counter
	connsRefused   *obs.Counter
	requests       *obs.Counter
	batches        *obs.Counter
	batchOps       *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	reqSeconds     *obs.Histogram
	batchSeconds   *obs.Histogram
	deadlineAborts *obs.Counter
}

// NewServer builds a Server over cfg.Store and registers its metrics.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("netsrv: Config.Store is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		st:        cfg.Store,
		batchSize: cfg.BatchSize,
		respQueue: cfg.RespQueue,
		maxConns:  cfg.MaxConns,
		epochOf:   cfg.EpochOf,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*conn]struct{}{},
	}
	if s.batchSize <= 0 {
		s.batchSize = 32
	}
	if s.respQueue <= 0 {
		s.respQueue = 128
	}
	s.connsGauge = reg.Gauge(metricConns, "currently open client connections")
	s.connsTotal = reg.Counter(metricConnsTotal, "client connections accepted")
	s.connsRefused = reg.Counter(metricConnsRefused, "connections refused at the limit or while draining")
	s.requests = reg.Counter(metricRequests, "request frames served")
	s.batches = reg.Counter(metricBatches, "store batch calls issued by the wire layer")
	s.batchOps = reg.Counter(metricBatchOps, "ops carried by wire-layer batch calls")
	s.bytesIn = reg.Counter(metricBytesIn, "request bytes received")
	s.bytesOut = reg.Counter(metricBytesOut, "response bytes sent")
	s.reqSeconds = reg.Histogram(metricReqSeconds, "per-request server-side latency")
	s.batchSeconds = reg.Histogram(metricBatchSeconds, "per-batch store call latency")
	s.deadlineAborts = reg.Counter(metricDeadlineAborts, "requests that failed at their deadline")
	return s, nil
}

// Serve accepts connections on l until l fails or Shutdown runs. It
// returns nil after a graceful shutdown, the accept error otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrDraining
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		if c, ok := s.addConn(nc); ok {
			go c.serve()
		} else {
			s.connsRefused.Inc()
			nc.Close()
		}
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// addConn registers a new connection unless the server is draining or
// at its connection limit.
func (s *Server) addConn(nc net.Conn) (*conn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || (s.maxConns > 0 && len(s.conns) >= s.maxConns) {
		return nil, false
	}
	c := &conn{
		srv:        s,
		nc:         nc,
		br:         bufio.NewReaderSize(nc, readBufSize),
		out:        make(chan []byte, s.respQueue),
		writerDone: make(chan struct{}),
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.connsTotal.Inc()
	s.connsGauge.Add(1)
	return c, true
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connsGauge.Add(-1)
	s.connWG.Done()
}

// Shutdown gracefully drains the server: listeners close (no new
// connections), every connection finishes its in-flight requests —
// pending batches execute and their responses are delivered — and the
// store's dirty lines are flushed. Connections still open when ctx
// expires are force-closed (their unread requests are dropped; the
// flush still runs). Returns the context error, the flush error, or
// nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	cs := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	// Kick readers blocked between frames: they observe the expired
	// read deadline, execute what they already accumulated, deliver the
	// responses, and exit.
	for _, c := range cs {
		c.nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return errors.Join(derr, s.st.Flush())
}

// conn is one client connection: a reader goroutine that parses frames
// and accumulates their ops into store batches, and a writer goroutine
// draining the bounded response queue.
//
// Buffer ownership on this path is explicit: request-frame payloads
// and read-destination arenas come from bufpool and return to it at the
// point nothing aliases them any more (the end of the handler, or the
// batch flush that consumes what the handler retained); response frames
// come from bufpool and are returned by writeLoop after hitting the
// socket. The reader goroutine owns every field below except out/werr.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	hdr frameHdr // header scratch for readFrame

	out        chan []byte
	writerDone chan struct{}
	werr       error // writeLoop-owned; reader never touches it

	// One homogeneous pending batch at a time, under one deadline:
	// mixing kinds would reorder a connection's read-after-write to the
	// same line, so a kind switch flushes first, and so does a frame
	// that cannot share the pending batch's deadline (see join). frames
	// holds one record per pending frame, in arrival order, whose ops
	// sit consecutively in reads or writes; due is the batch's deadline,
	// the earliest among its frames (zero: none), and half the latest of
	// their half-budget points. All three slices are trimmed back to
	// batchSize after an oversized batch so one huge frame does not pin
	// its high-water memory for the connection's lifetime.
	reads     []pcache.ReadOp
	writes    []pcache.WriteOp
	frames    []pendingFrame
	due, half time.Time

	// retained holds the BATCH_WRITE payloads pending write ops alias
	// (each op's Data points into its frame); they go back to the pool
	// once the write batch executes.
	retained [][]byte
	// arenas back read destinations: Dsts are carved from pooled
	// chunks, and the chunks are Put once the responses holding copies
	// of the data have been built.
	arenas [][]byte
}

// pendingFrame is one frame whose ops wait in the pending batch: its
// request id, its arrival time and its op count.
type pendingFrame struct {
	id uint64
	t0 time.Time
	n  int
}

// arenaChunk is the default read-destination arena size — large enough
// that a full default batch of line-sized reads carves from one chunk.
const arenaChunk = 64 * 1024

// carve returns an n-byte read destination from the connection's
// current arena, growing by pooled chunks as needed. Earlier carvings
// are never moved (a fresh chunk is opened instead), so Dst slices stay
// valid until releaseArenas.
func (c *conn) carve(n int) []byte {
	if len(c.arenas) == 0 || len(c.arenas[len(c.arenas)-1])+n > cap(c.arenas[len(c.arenas)-1]) {
		sz := arenaChunk
		if n > sz {
			sz = n
		}
		c.arenas = append(c.arenas, bufpool.Get(sz)[:0])
	}
	a := c.arenas[len(c.arenas)-1]
	off := len(a)
	a = a[:off+n]
	c.arenas[len(c.arenas)-1] = a
	return a[off:len(a):len(a)]
}

// releaseArenas returns every arena chunk to the pool. Callers must
// have copied all live Dst data out first.
func (c *conn) releaseArenas() {
	for i, a := range c.arenas {
		bufpool.Put(a)
		c.arenas[i] = nil
	}
	c.arenas = c.arenas[:0]
}

// releaseRetained returns the request frames pinned by pending write
// ops. Call only after the batch holding their aliases executed.
func (c *conn) releaseRetained() {
	for i, b := range c.retained {
		bufpool.Put(b)
		c.retained[i] = nil
	}
	c.retained = c.retained[:0]
}

// trimOps resets s for reuse, clearing stale elements (so dropped
// buffers are not pinned through the backing array) and giving back the
// capacity an oversized batch grew: past max, the scratch shrinks to
// max instead of pinning its high-water mark forever.
func trimOps[T any](s []T, max int) []T {
	if cap(s) > max {
		return make([]T, 0, max)
	}
	clear(s[:cap(s)])
	return s[:0]
}

// serve is the connection's reader loop.
func (c *conn) serve() {
	defer func() {
		close(c.out)
		<-c.writerDone
		c.nc.Close()
		c.srv.removeConn(c)
	}()
	go c.writeLoop()
	for {
		// The pipe is idle (no buffered frames): flush what has
		// accumulated before blocking on the next frame, so a paused
		// pipeline never strands its tail.
		if len(c.frames) > 0 && c.br.Buffered() == 0 {
			c.flushBatches()
		}
		f, err := readFrame(c.br, &c.hdr)
		if err != nil {
			// Drain kick (read deadline) or a dead peer: either way the
			// already-received ops still execute and respond.
			c.flushBatches()
			return
		}
		c.srv.requests.Inc()
		c.srv.bytesIn.Add(uint64(frameHeader + frameFixed + len(f.payload)))
		if !c.handle(f) {
			// The handler is done with the frame; a BATCH_WRITE
			// instead retains it (Data aliases the payload) and
			// flushBatches returns it after the batch executes.
			bufpool.Put(f.payload)
		}
		if len(c.reads)+len(c.writes) >= c.srv.batchSize {
			c.flushBatches()
		}
	}
}

// writeLoop drains the response queue into the socket, flushing when
// the queue empties. After a write error it keeps draining (discarding)
// so the reader can never deadlock on a full queue, and closes the
// socket so the reader unblocks.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.nc, readBufSize)
	for b := range c.out {
		if c.werr != nil {
			bufpool.Put(b)
			continue
		}
		_, err := bw.Write(b)
		bufpool.Put(b)
		if err != nil {
			c.werr = err
			c.nc.Close()
			continue
		}
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				c.werr = err
				c.nc.Close()
			}
		}
	}
	if c.werr == nil {
		bw.Flush()
	}
}

// respond builds one response frame in a pooled buffer and enqueues it
// (blocking when the queue is full — the backpressure point). The
// payload is copied, so the caller keeps ownership of it; the frame
// buffer's ownership passes to writeLoop, which returns it to the pool
// after the socket write.
func (c *conn) respond(op uint8, id uint64, status uint8, payload []byte, t0 time.Time) {
	b := bufpool.Get(frameHeader + frameFixed + 1 + len(payload))
	bePut32(b, uint32(frameFixed+1+len(payload)))
	b[4] = op
	bePut64(b[5:], id)
	b[13] = status
	copy(b[14:], payload)
	c.enqueue(b, t0)
}

// enqueue hands one fully built pooled response frame to writeLoop and
// records the request's latency.
func (c *conn) enqueue(b []byte, t0 time.Time) {
	c.srv.bytesOut.Add(uint64(len(b)))
	c.out <- b
	c.srv.reqSeconds.Observe(time.Since(t0))
}

// handle dispatches one request frame. A well-formed BATCH_READ or
// BATCH_WRITE frame adds its ops to the pending batch (see join);
// FLUSH and EPOCH flush the pending batch first (to keep per-connection
// ordering) and execute in place; a malformed frame or an unknown
// opcode is refused at once. It reports whether the frame's payload is
// retained beyond this call (pending write ops alias it); if not, the
// caller returns the payload to the pool.
func (c *conn) handle(f frame) (retained bool) {
	t0 := time.Now()
	p := f.payload
	switch f.op {
	case opBatchRead:
		count, bad := readCount(p)
		if bad != "" {
			c.respond(f.op, f.id, stBadRequest, []byte(bad), t0)
			return false
		}
		c.join(f, count, t0)
		for q := p[12:]; len(q) > 0; q = q[12:] {
			c.reads = append(c.reads, pcache.ReadOp{Addr: be64(q), Dst: c.carve(int(be32(q[8:])))})
		}

	case opBatchWrite:
		count, bad := writeCount(p)
		if bad != "" {
			c.respond(f.op, f.id, stBadRequest, []byte(bad), t0)
			return false
		}
		c.join(f, count, t0)
		// Data aliases the frame's pooled payload, retained (and
		// returned to the pool) by the batch flush.
		for q := p[12:]; len(q) > 0; {
			n := int(be32(q[8:]))
			c.writes = append(c.writes, pcache.WriteOp{Addr: be64(q), Data: q[12 : 12+n]})
			q = q[12+n:]
		}
		c.retained = append(c.retained, p)
		return true

	case opFlush:
		if len(p) != 8 {
			c.respond(f.op, f.id, stBadRequest, []byte("bad FLUSH frame"), t0)
			return false
		}
		c.flushBatches()
		ctx, cancel := deadlineCtx(context.Background(), t0, be64(p))
		err := c.srv.st.FlushCtx(ctx)
		cancel()
		if err != nil {
			c.countAbort(err)
			c.respond(f.op, f.id, statusOf(err), []byte(err.Error()), t0)
			return false
		}
		c.respond(f.op, f.id, stOK, nil, t0)

	case opEpoch:
		if len(p) != 8 {
			c.respond(f.op, f.id, stBadRequest, []byte("bad EPOCH frame"), t0)
			return false
		}
		if c.srv.epochOf == nil {
			c.respond(f.op, f.id, stUnsupported, []byte("no epoch oracle"), t0)
			return false
		}
		// Epoch ordering matters to the oracle: pending writes must
		// land before the epoch is sampled.
		c.flushBatches()
		var buf [8]byte
		bePut64(buf[:], c.srv.epochOf(be64(p)))
		c.respond(f.op, f.id, stOK, buf[:], t0)

	default:
		c.respond(f.op, f.id, stBadRequest, []byte(fmt.Sprintf("unknown opcode %d", f.op)), t0)
	}
	return false
}

// readCount validates a BATCH_READ payload as a whole and returns its
// op count, or why the frame is refused.
func readCount(p []byte) (count int, bad string) {
	if len(p) < 8+4 {
		return 0, "bad BATCH_READ frame"
	}
	count = int(be32(p[8:]))
	if count <= 0 || count > maxBatchOps || len(p) != 12+count*12 {
		return 0, "bad BATCH_READ geometry"
	}
	total := 0
	for q := p[12:]; len(q) > 0; q = q[12:] {
		n := int(be32(q[8:]))
		if n <= 0 || n > maxReadLen || total+n > maxFrame/2 {
			return 0, "bad BATCH_READ op size"
		}
		total += n
	}
	return count, ""
}

// writeCount validates a BATCH_WRITE payload as a whole and returns its
// op count, or why the frame is refused.
func writeCount(p []byte) (count int, bad string) {
	if len(p) < 8+4 {
		return 0, "bad BATCH_WRITE frame"
	}
	count = int(be32(p[8:]))
	if count <= 0 || count > maxBatchOps {
		return 0, "bad BATCH_WRITE geometry"
	}
	q := p[12:]
	for i := 0; i < count; i++ {
		if len(q) < 12 {
			return 0, "truncated BATCH_WRITE"
		}
		n := int(be32(q[8:]))
		if n < 0 || n > len(q)-12 {
			return 0, "truncated BATCH_WRITE op"
		}
		q = q[12+n:]
	}
	if len(q) != 0 {
		return 0, "trailing BATCH_WRITE bytes"
	}
	return count, ""
}

// join readies the pending batch for frame f, which arrived at t0
// carrying n ops. The pending batch runs under the earliest deadline
// among its frames, so no op gets more budget than it asked for; f
// joins only if that deadline still leaves every frame, f included, at
// least half of its own budget. A pending batch of the other kind, or
// one f cannot join, executes first; deadline-free frames share only
// deadline-free batches. The caller then appends f's ops to reads or
// writes.
func (c *conn) join(f frame, n int, t0 time.Time) {
	deadline := be64(f.payload)
	due, half := dueAt(t0, deadline), t0.Add(time.Duration(deadline/2))
	if len(c.frames) > 0 && ((f.op == opBatchRead) != (len(c.reads) > 0) || !c.shares(due, half)) {
		c.flushBatches()
	}
	if len(c.frames) == 0 || due.Before(c.due) {
		c.due = due
	}
	if len(c.frames) == 0 || half.After(c.half) {
		c.half = half
	}
	c.frames = append(c.frames, pendingFrame{id: f.id, t0: t0, n: n})
}

// shares reports whether a frame with deadline due and half-budget
// point half can join the pending batch: the batch's deadline, taken
// down to due if that is earlier, must fall no earlier than any frame's
// half-budget point.
func (c *conn) shares(due, half time.Time) bool {
	if due.IsZero() || c.due.IsZero() {
		return due.IsZero() && c.due.IsZero()
	}
	return !due.Before(c.half) && !c.due.Before(half)
}

// flushBatches executes the pending batch as one store call and answers
// every pending frame with its own batch response. After the flush the
// pooled buffers backing the batch go home: read Dst arenas once the
// responses carry copies of the data, retained write frames once the
// store has consumed them; the scratch slices trim back to batchSize so
// an oversized burst does not pin its high-water memory.
func (c *conn) flushBatches() {
	if len(c.frames) == 0 {
		return
	}
	max := c.srv.batchSize
	if len(c.reads) > 0 {
		c.readStore(c.reads, c.due)
		ops := c.reads
		for _, pf := range c.frames {
			c.respondReads(pf, ops[:pf.n])
			ops = ops[pf.n:]
		}
		c.reads = trimOps(c.reads, max)
		c.releaseArenas()
	} else {
		c.writeStore(c.writes, c.due)
		ops := c.writes
		for _, pf := range c.frames {
			c.respondWrites(pf, ops[:pf.n])
			ops = ops[pf.n:]
		}
		c.writes = trimOps(c.writes, max)
		c.releaseRetained()
	}
	c.frames = trimOps(c.frames, max)
}

// respondReads answers one BATCH_READ frame with its ops' outcomes.
func (c *conn) respondReads(pf pendingFrame, ops []pcache.ReadOp) {
	okTotal := 0
	for i := range ops {
		if ops[i].Err == nil {
			okTotal += len(ops[i].Dst)
		}
	}
	b := bufpool.Get(frameHeader + frameFixed + 1 + 4 + len(ops)*5 + okTotal)[:frameHeader]
	b = append(b, opBatchRead)
	b = be64Append(b, pf.id)
	b = append(b, stOK)
	b = be32Append(b, uint32(len(ops)))
	for i := range ops {
		st := statusOf(ops[i].Err)
		b = append(b, st)
		if st == stOK {
			b = be32Append(b, uint32(len(ops[i].Dst)))
			b = append(b, ops[i].Dst...)
		} else {
			b = be32Append(b, 0)
		}
	}
	bePut32(b, uint32(len(b)-frameHeader))
	c.enqueue(b, pf.t0)
}

// respondWrites answers one BATCH_WRITE frame with its ops' statuses.
func (c *conn) respondWrites(pf pendingFrame, ops []pcache.WriteOp) {
	b := bufpool.Get(frameHeader + frameFixed + 1 + 4 + len(ops))
	bePut32(b, uint32(frameFixed+1+4+len(ops)))
	b[4] = opBatchWrite
	bePut64(b[5:], pf.id)
	b[13] = stOK
	bePut32(b[14:], uint32(len(ops)))
	for i := range ops {
		b[18+i] = statusOf(ops[i].Err)
	}
	c.enqueue(b, pf.t0)
}

// readStore is the one place read ops reach the store: deadline-free
// batches (zero due) take the plain ReadBatch, and bounded ones run
// through ReadBatchCtx under due. An op whose deadline expired before the batch ran answers
// stDeadline. Ops the deadline kills are counted in
// net_deadline_aborts_total.
func (c *conn) readStore(ops []pcache.ReadOp, due time.Time) {
	t0 := time.Now()
	if due.IsZero() {
		c.srv.st.ReadBatch(ops)
	} else {
		ctx, cancel := context.WithDeadline(context.Background(), due)
		c.srv.st.ReadBatchCtx(ctx, ops)
		cancel()
	}
	c.observeBatch(len(ops), t0)
	for i := range ops {
		c.countAbort(ops[i].Err)
	}
}

// writeStore is readStore for write ops.
func (c *conn) writeStore(ops []pcache.WriteOp, due time.Time) {
	t0 := time.Now()
	if due.IsZero() {
		c.srv.st.WriteBatch(ops)
	} else {
		ctx, cancel := context.WithDeadline(context.Background(), due)
		c.srv.st.WriteBatchCtx(ctx, ops)
		cancel()
	}
	c.observeBatch(len(ops), t0)
	for i := range ops {
		c.countAbort(ops[i].Err)
	}
}

func (c *conn) observeBatch(ops int, t0 time.Time) {
	c.srv.batches.Inc()
	c.srv.batchOps.Add(uint64(ops))
	c.srv.batchSeconds.Observe(time.Since(t0))
}

// countAbort counts err in net_deadline_aborts_total when it is a
// deadline outcome.
func (c *conn) countAbort(err error) {
	if st := statusOf(err); st == stDeadline || st == stRecoveryInProgress {
		c.srv.deadlineAborts.Inc()
	}
}
