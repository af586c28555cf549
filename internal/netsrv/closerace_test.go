package netsrv

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// blackHoleServer accepts connections and reads frames forever without
// ever responding — the deterministic way to park many pipelined calls
// in their response-wait select.
func blackHoleServer(t *testing.T) (net.Listener, *atomic.Uint64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Uint64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					if _, err := readFrame(c, new(frameHdr)); err != nil {
						return
					}
					frames.Add(1)
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l, &frames
}

// TestClientCloseReleasesAllWaiters pins that Close fails every parked
// in-flight call with an error wrapping ErrClosed — no waiter hangs, no
// waiter sees a bare nil-and-garbage success.
func TestClientCloseReleasesAllWaiters(t *testing.T) {
	l, frames := blackHoleServer(t)
	c := dial(t, l.Addr().String())

	const waiters = 32
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			_, err := c.ReadCtx(context.Background(), uint64(i*64), 64)
			errs <- err
		}(i)
	}
	// Every request must be on the wire before Close, or the test would
	// pass trivially via the call-entry closed check.
	deadline := time.Now().Add(5 * time.Second)
	for frames.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames reached the server", frames.Load(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter error = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after Close", i)
		}
	}
	// Post-close calls fail immediately with the same sentinel.
	if _, err := c.ReadCtx(context.Background(), 0, 64); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Read error = %v, want ErrClosed", err)
	}
}

// TestClientCloseRace hammers a real server with pipelined traffic from
// many goroutines while Close races in from several more, under -race.
// Every outcome must be a clean success or an error wrapping ErrClosed
// (never a deadlock, never a mystery error), and the client's goroutines
// must all exit.
func TestClientCloseRace(t *testing.T) {
	st, _ := newStore(t, 2, resilience.Config{})
	_, addr := startServer(t, st, Config{})

	base := runtime.NumGoroutine()
	const rounds = 8
	for round := 0; round < rounds; round++ {
		c := dial(t, addr)
		var wg sync.WaitGroup
		const workers = 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, 64)
				for i := 0; ; i++ {
					a := uint64((w*97 + i) % 128 * 64)
					var err error
					if i%3 == 0 {
						err = c.WriteCtx(context.Background(), a, buf)
					} else if i%7 == 0 {
						ops := []pcache.ReadOp{{Addr: a, Dst: make([]byte, 64)}}
						_, err = c.ReadBatchCtx(context.Background(), ops)
					} else {
						_, err = c.ReadCtx(context.Background(), a, 64)
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("worker %d: error = %v, want ErrClosed", w, err)
						}
						return
					}
				}
			}(w)
		}
		// Let traffic build, then slam Close from several goroutines at
		// once — Close must be idempotent and race-free.
		time.Sleep(5 * time.Millisecond)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); c.Close() }()
		}
		wg.Wait()
	}

	// The readLoop of every closed client must have exited: allow the
	// runtime a moment to reap, then compare against the baseline with
	// slack for the server's own transient accept goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
