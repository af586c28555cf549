package netsrv

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/pcache"
)

// Client is a pipelined protocol client, safe for concurrent callers:
// every in-flight request holds its own id, so N goroutines sharing one
// Client keep N requests on the wire at once and responses are
// correlated back by id regardless of arrival order. Errors decoded
// from the wire unwrap to the same sentinels local store calls return
// (pcache.ErrUncorrectable, resilience.ErrRecoveryInProgress,
// context.DeadlineExceeded), so remote and local failure handling is
// the same code.
type Client struct {
	nc net.Conn

	// wmu serialises frame writes; the bufio flush after every send
	// keeps single-caller latency low while still letting concurrent
	// callers interleave whole frames. hdr is the wmu-guarded header
	// scratch: frames go out as a header write plus a payload write, so
	// no per-call frame buffer is ever assembled.
	wmu sync.Mutex
	bw  *bufio.Writer
	hdr frameHdr

	rhdr frameHdr // readLoop's header scratch for readFrame

	pmu     sync.Mutex
	pending map[uint64]chan []byte
	nextID  uint64
	closed  bool
	cause   error // first transport failure (nil on deliberate Close)

	done chan struct{}
}

// respChanPool recycles the per-call response channels. Each carries
// one response payload as readFrame pooled it, status byte first. A
// channel is returned to the pool ONLY on the happy receive path: a
// call abandoned at ctx expiry (or client death) may still receive a
// late send from readLoop, so its channel must never be reused.
var respChanPool = sync.Pool{New: func() any { return make(chan []byte, 1) }}

// Dial connects a Client to a cachenetd-style server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (ownership transfers: the
// Client closes it).
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, readBufSize),
		pending: map[uint64]chan []byte{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.fatal(nil)
	return nil
}

// fatal marks the client dead, fails every waiter, and closes the
// socket. The first cause wins.
func (c *Client) fatal(cause error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	c.cause = cause
	c.pending = map[uint64]chan []byte{}
	c.pmu.Unlock()
	close(c.done)
	c.nc.Close()
}

// closedErr builds the error in-flight and future calls observe.
func (c *Client) closedErr() error {
	c.pmu.Lock()
	cause := c.cause
	c.pmu.Unlock()
	if cause == nil {
		return ErrClosed
	}
	return fmt.Errorf("%w: %w", ErrClosed, cause)
}

// readLoop dispatches response frames to their waiting callers. Each
// caller gets the whole pooled payload, so its capacity is still a
// bufpool size class when the call that decodes it Puts it back.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
		f, err := readFrame(br, &c.rhdr)
		if err != nil {
			c.fatal(err)
			return
		}
		if len(f.payload) < 1 {
			c.fatal(fmt.Errorf("netsrv: response frame with no status"))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.id]
		delete(c.pending, f.id)
		c.pmu.Unlock()
		if !ok {
			// The call gave up (ctx expired): nobody will read this.
			bufpool.Put(f.payload)
			continue
		}
		// Buffered(1): never blocks. A caller that gives up after the
		// lookup never receives; the GC takes its response.
		ch <- f.payload
	}
}

// call sends one request frame and waits for its response under ctx.
// The request payload is fully consumed by the time call returns, so
// callers that drew it from bufpool may Put it back immediately after.
// A non-OK response status comes back as the error. On success data is
// the response's payload and buf the pooled buffer holding it: the
// caller Puts buf once it has decoded data (buf is nil on error, and
// Put ignores nil).
func (c *Client) call(ctx context.Context, op uint8, payload []byte) (data, buf []byte, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ch := respChanPool.Get().(chan []byte)
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		respChanPool.Put(ch)
		return nil, nil, c.closedErr()
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	bePut32(c.hdr[:], uint32(frameFixed+len(payload)))
	c.hdr[4] = op
	bePut64(c.hdr[5:], id)
	_, werr := c.bw.Write(c.hdr[:])
	if werr == nil && len(payload) > 0 {
		_, werr = c.bw.Write(payload)
	}
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.fatal(werr)
		return nil, nil, c.closedErr()
	}

	select {
	case buf = <-ch:
		respChanPool.Put(ch)
	case <-ctx.Done():
		// The channel may still receive a late send — leak it to the GC
		// rather than ever reusing it.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return nil, nil, ctx.Err()
	case <-c.done:
		return nil, nil, c.closedErr()
	}
	if buf[0] != stOK {
		err = statusErr(buf[0], string(buf[1:]))
		bufpool.Put(buf)
		return nil, nil, err
	}
	return buf[1:], buf, nil
}

// wireDeadline converts ctx's deadline to the protocol's relative
// nanoseconds (0 = none). An already-expired deadline fails fast here
// with the context's error — burning a round trip just so the server
// can answer stDeadline would charge a doomed request a full RTT.
// (ctx.Err() can still be nil in the instant after the deadline passes,
// before the context's timer fires; DeadlineExceeded is the answer
// either way.)
func wireDeadline(ctx context.Context) (uint64, error) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	rel := time.Until(d)
	if rel <= 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, context.DeadlineExceeded
	}
	return uint64(rel), nil
}

// ReadCtx returns n bytes at addr, bounded by ctx: a BATCH_READ of one
// op, which the server adds to its pending batch like any other frame.
// A length below 1 or above the protocol's 1 MiB per-op limit fails
// with ErrBadRequest before anything is allocated or sent. The returned slice is the one
// allocation a read makes.
func (c *Client) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	if n < 1 || n > maxReadLen {
		return nil, fmt.Errorf("%w: read length %d", ErrBadRequest, n)
	}
	op := [1]pcache.ReadOp{{Addr: addr, Dst: make([]byte, n)}}
	if _, err := c.ReadBatchCtx(ctx, op[:]); err != nil {
		return nil, err
	}
	if op[0].Err != nil {
		return nil, op[0].Err
	}
	return op[0].Dst, nil
}

// WriteCtx stores data at addr, bounded by ctx: a BATCH_WRITE of one op.
func (c *Client) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	op := [1]pcache.WriteOp{{Addr: addr, Data: data}}
	if _, err := c.WriteBatchCtx(ctx, op[:]); err != nil {
		return err
	}
	return op[0].Err
}

// ReadBatchCtx sends every op in one BATCH_READ frame — one round
// trip, one server-side amortised store call. Per-op outcomes land in
// each op's Err and Dst; failed counts ops whose Err is non-nil. A
// non-nil error is transport-level: no op was served. The deadline
// travels in the frame, and the server runs the batch as one store call
// under it, so an op the deadline cuts off answers a deadline status of
// its own.
func (c *Client) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) > maxBatchOps {
		return len(ops), fmt.Errorf("netsrv: batch of %d ops exceeds limit %d", len(ops), maxBatchOps)
	}
	wd, err := wireDeadline(ctx)
	if err != nil {
		return len(ops), err
	}
	p := bufpool.Get(12 + len(ops)*12)[:0]
	p = be64Append(p, wd)
	p = be32Append(p, uint32(len(ops)))
	for i := range ops {
		p = be64Append(p, ops[i].Addr)
		p = be32Append(p, uint32(len(ops[i].Dst)))
	}
	b, buf, err := c.call(ctx, opBatchRead, p)
	bufpool.Put(p)
	if err != nil {
		return len(ops), err
	}
	defer bufpool.Put(buf)
	if len(b) < 4 || int(be32(b)) != len(ops) {
		return len(ops), fmt.Errorf("netsrv: BATCH_READ response count mismatch")
	}
	off := 4
	for i := range ops {
		if off+5 > len(b) {
			return len(ops), fmt.Errorf("netsrv: truncated BATCH_READ response")
		}
		st := b[off]
		n := int(be32(b[off+1:]))
		off += 5
		if off+n > len(b) || (st == stOK && n != len(ops[i].Dst)) {
			return len(ops), fmt.Errorf("netsrv: malformed BATCH_READ response")
		}
		ops[i].Err = statusErr(st, "")
		if st == stOK {
			copy(ops[i].Dst, b[off:off+n])
		} else {
			failed++
		}
		off += n
	}
	return failed, nil
}

// WriteBatchCtx sends every op in one BATCH_WRITE frame; the deadline
// travels in the frame and bounds every op server-side. Outcomes and
// errors are as in ReadBatchCtx.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) > maxBatchOps {
		return len(ops), fmt.Errorf("netsrv: batch of %d ops exceeds limit %d", len(ops), maxBatchOps)
	}
	wd, err := wireDeadline(ctx)
	if err != nil {
		return len(ops), err
	}
	size := 12
	for i := range ops {
		size += 12 + len(ops[i].Data)
	}
	p := bufpool.Get(size)[:0]
	p = be64Append(p, wd)
	p = be32Append(p, uint32(len(ops)))
	for i := range ops {
		p = be64Append(p, ops[i].Addr)
		p = be32Append(p, uint32(len(ops[i].Data)))
		p = append(p, ops[i].Data...)
	}
	b, buf, err := c.call(ctx, opBatchWrite, p)
	bufpool.Put(p)
	if err != nil {
		return len(ops), err
	}
	defer bufpool.Put(buf)
	if len(b) != 4+len(ops) || int(be32(b)) != len(ops) {
		return len(ops), fmt.Errorf("netsrv: BATCH_WRITE response count mismatch")
	}
	for i := range ops {
		ops[i].Err = statusErr(b[4+i], "")
		if ops[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

// Flush writes back every dirty line on the server.
func (c *Client) Flush() error {
	return c.FlushCtx(context.Background())
}

// FlushCtx is Flush bounded by ctx.
func (c *Client) FlushCtx(ctx context.Context) error {
	wd, err := wireDeadline(ctx)
	if err != nil {
		return err
	}
	p := be64Append(bufpool.Get(8)[:0], wd)
	_, buf, err := c.call(ctx, opFlush, p)
	bufpool.Put(p)
	bufpool.Put(buf)
	return err
}

// Epoch fetches the loss epoch of the set owning addr — the soak
// oracle's primitive for telling accounted loss from silent corruption.
// Servers without an epoch oracle answer ErrUnsupported.
func (c *Client) Epoch(addr uint64) (uint64, error) {
	p := be64Append(bufpool.Get(8)[:0], addr)
	data, buf, err := c.call(context.Background(), opEpoch, p)
	bufpool.Put(p)
	if err != nil {
		return 0, err
	}
	defer bufpool.Put(buf)
	if len(data) != 8 {
		return 0, fmt.Errorf("netsrv: EPOCH response %d bytes", len(data))
	}
	return be64(data), nil
}
