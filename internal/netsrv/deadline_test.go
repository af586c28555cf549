package netsrv

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"twodcache/internal/pcache"
)

// staleDeadlineCtx models the window where the wall clock has passed
// the deadline but the context's timer has not fired yet: Deadline()
// is in the past while Err() is still nil. wireDeadline must treat it
// as expired anyway.
type staleDeadlineCtx struct{ context.Context }

func (staleDeadlineCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Hour), true }
func (staleDeadlineCtx) Err() error                  { return nil }

// canceledDeadlineCtx carries both a past deadline and a Canceled
// error — cancellation raced the deadline and won.
type canceledDeadlineCtx struct{ context.Context }

func (canceledDeadlineCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Hour), true }
func (canceledDeadlineCtx) Err() error                  { return context.Canceled }

// TestDeadlineCtxClamp pins the server-side decode: a wire deadline
// above MaxInt64 nanoseconds — unrepresentable as time.Duration —
// must clamp to the far future, not wrap negative and expire the
// request before the store ever sees it.
func TestDeadlineCtxClamp(t *testing.T) {
	for _, nanos := range []uint64{math.MaxInt64 + 1, math.MaxUint64} {
		ctx, cancel := deadlineCtx(context.Background(), time.Now(), nanos)
		if err := ctx.Err(); err != nil {
			t.Errorf("deadlineCtx(%d) expired on arrival: %v", nanos, err)
		}
		if d, ok := ctx.Deadline(); !ok || time.Until(d) < 24*time.Hour {
			t.Errorf("deadlineCtx(%d) deadline %v, want far future", nanos, d)
		}
		cancel()
	}
}

// TestDeadlineCtxZero pins that a zero wire deadline means "none": the
// parent comes back unchanged.
func TestDeadlineCtxZero(t *testing.T) {
	parent := context.Background()
	ctx, cancel := deadlineCtx(parent, time.Now(), 0)
	defer cancel()
	if ctx != parent {
		t.Fatal("deadlineCtx(0) did not return the parent")
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("deadlineCtx(0) grew a deadline")
	}
}

// TestWireDeadlineRoundTrip pins the client-encode → server-decode
// path: a live deadline survives the trip without tightening past the
// original or expiring en route.
func TestWireDeadlineRoundTrip(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	wd, err := wireDeadline(parent)
	if err != nil {
		t.Fatalf("wireDeadline on a live ctx: %v", err)
	}
	if wd == 0 || wd > uint64(250*time.Millisecond) {
		t.Fatalf("wireDeadline = %d ns, want in (0, 250ms]", wd)
	}
	ctx, cancel2 := deadlineCtx(context.Background(), time.Now(), wd)
	defer cancel2()
	if err := ctx.Err(); err != nil {
		t.Fatalf("round-tripped ctx dead on arrival: %v", err)
	}
	pd, _ := parent.Deadline()
	if d, ok := ctx.Deadline(); !ok || d.After(pd.Add(10*time.Millisecond)) {
		t.Fatalf("round-tripped deadline %v later than original %v", d, pd)
	}
}

// TestWireDeadlineNone pins that a deadline-free context encodes as 0.
func TestWireDeadlineNone(t *testing.T) {
	wd, err := wireDeadline(context.Background())
	if wd != 0 || err != nil {
		t.Fatalf("wireDeadline(Background) = %d, %v; want 0, nil", wd, err)
	}
}

// TestWireDeadlineExpired pins the fail-fast contract: an expired or
// cancelled context is refused client-side with its own error — never
// encoded as a tiny deadline for the server to bounce.
func TestWireDeadlineExpired(t *testing.T) {
	// A context cancelled before its deadline passed reports Canceled —
	// wireDeadline must surface ctx.Err() as-is, not invent its own.
	canceled := canceledDeadlineCtx{context.Background()}
	if _, err := wireDeadline(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want Canceled", err)
	}

	past, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := wireDeadline(past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past-deadline ctx: err = %v, want DeadlineExceeded", err)
	}

	// The timer-not-yet-fired window: Err() nil, Deadline() past.
	stale := staleDeadlineCtx{context.Background()}
	if _, err := wireDeadline(stale); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stale-deadline ctx: err = %v, want DeadlineExceeded", err)
	}
}

// TestClientExpiredCtxNoRoundTrip pins the satellite end to end: every
// Ctx entry point refuses an expired context before any frame reaches
// the wire, and ReadCtx refuses a length no server would serve the same
// way, as ErrBadRequest and without panicking on a negative one. The
// peer side of the pipe watches for bytes; seeing any means the client
// burned the round trip the fix is supposed to save.
func TestClientExpiredCtxNoRoundTrip(t *testing.T) {
	cl, sv := net.Pipe()
	c := NewClient(cl)
	defer c.Close()
	defer sv.Close()

	ctx := staleDeadlineCtx{context.Background()}
	for name, call := range map[string]func() error{
		"ReadCtx":  func() error { _, err := c.ReadCtx(ctx, 0, 8); return err },
		"WriteCtx": func() error { return c.WriteCtx(ctx, 0, []byte{1}) },
		"ReadBatchCtx": func() error {
			ops := []pcache.ReadOp{{Addr: 0, Dst: make([]byte, 8)}}
			_, err := c.ReadBatchCtx(ctx, ops)
			return err
		},
		"WriteBatchCtx": func() error {
			ops := []pcache.WriteOp{{Addr: 0, Data: []byte{1}}}
			_, err := c.WriteBatchCtx(ctx, ops)
			return err
		},
		"FlushCtx": func() error { return c.FlushCtx(ctx) },
	} {
		if err := call(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s with expired ctx: err = %v, want DeadlineExceeded", name, err)
		}
	}
	for _, n := range []int{0, -1, maxReadLen + 1} {
		if got, err := c.ReadCtx(context.Background(), 0, n); !errors.Is(err, ErrBadRequest) || got != nil {
			t.Fatalf("ReadCtx of %d bytes: %d bytes, err = %v, want ErrBadRequest", n, len(got), err)
		}
	}

	// Nothing may have hit the wire: a read on the peer must time out
	// with zero bytes, not observe a frame.
	sv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 1)
	if n, err := sv.Read(buf); err == nil || n > 0 {
		t.Fatalf("client sent %d bytes for expired-ctx calls (err=%v)", n, err)
	} else if !errors.Is(err, io.EOF) {
		var ne net.Error
		if !(errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("peer read: %v, want timeout", err)
		}
	}
}
