package netsrv

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/twod"
)

// goroutineCount samples runtime.NumGoroutine after nudging the
// scheduler, so freshly-exited goroutines are actually gone.
func goroutineCount() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// waitGoroutines polls until the goroutine count returns to the
// baseline or the deadline passes.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goroutineCount() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goroutineCount(); got > baseline {
		t.Fatalf("goroutine leak: %d alive, baseline %d", got, baseline)
	}
}

// TestGracefulDrain is the shutdown contract end to end: with writers
// mid-pipeline, Shutdown must let every acknowledged write execute and
// flush to the backing, refuse new connections, return Serve nil, and
// leave no server goroutine behind.
func TestGracefulDrain(t *testing.T) {
	baseline := goroutineCount()
	st, backing := newStore(t, 2, resilience.Config{})
	srv, err := NewServer(Config{Store: st, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	// Each writer streams full lines at fresh addresses (its own slice
	// of the address space), recording every acknowledged write. An ack
	// means the server executed the op — so after drain+flush the
	// backing must hold exactly that data at that line.
	const writers = 4
	acked := make([]map[uint64][]byte, writers)
	clients := make([]*Client, writers)
	for g := 0; g < writers; g++ {
		acked[g] = map[uint64][]byte{}
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients[g] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for seq := 0; ; seq++ {
				addr := uint64(g<<20|seq) * lineBytes
				data := make([]byte, lineBytes)
				rng.Read(data)
				if err := clients[g].WriteCtx(context.Background(), addr, data); err != nil {
					// The drain closed the connection under us — the
					// expected way out.
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDraining) {
						t.Errorf("writer %d: unexpected error %v", g, err)
					}
					return
				}
				acked[g][addr] = data
			}
		}(g)
	}

	// Let traffic flow, then drain mid-stream.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
	}
	wg.Wait()

	// New connections must be refused: the listener is closed.
	if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}

	total := 0
	for g := 0; g < writers; g++ {
		clients[g].Close()
		total += len(acked[g])
		for addr, want := range acked[g] {
			if got := backing.ReadLine(addr); !bytes.Equal(got, want) {
				t.Fatalf("writer %d: acked line %#x not in backing after drain", g, addr)
			}
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before the drain — test proved nothing")
	}

	// A drained server refuses Serve on a fresh listener.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l2); !errors.Is(err, ErrDraining) {
		t.Fatalf("Serve after Shutdown = %v, want ErrDraining", err)
	}

	waitGoroutines(t, baseline)
}

// TestShutdownForceClose pins the ctx-expired path: a connection that
// never completes its frame keeps the drain from finishing, so an
// already-expired ctx must force-close it, return the ctx error, and
// still leave no goroutines behind.
func TestShutdownForceClose(t *testing.T) {
	baseline := goroutineCount()
	st, _ := newStore(t, 1, resilience.Config{})
	srv, err := NewServer(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	// A half-frame keeps the reader waiting for payload even after the
	// drain kick resets its read deadline — SetReadDeadline only kicks
	// the *current* blocking read; this conn immediately re-blocks
	// inside io.ReadFull. Only the force-close path can reap it.
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(be32Append(nil, 100)) // length promises 100 bytes that never come
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
	waitGoroutines(t, baseline)
}

// TestHammer drives many concurrent pipelined clients over a store
// under a live fault storm — the -race workout for the wire layer.
// Every error escaping to a caller must be canonical: transport errors
// only after the test closes things, op errors only the taxonomy the
// store itself produces.
func TestHammer(t *testing.T) {
	st, _ := newStore(t, 2, resilience.Config{})
	_, addr := startServer(t, st, Config{BatchSize: 8, RespQueue: 32})

	const nClients = 3
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = dial(t, addr)
	}

	// Storm: continuous single-event flips across every (shard, bank),
	// clean-word gated under the bank lock like the soak harness.
	stopStorm := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		storm := fault.NewStorm(fault.StormConfig{Seed: 99, MeanInterval: time.Microsecond})
		rng := rand.New(rand.NewSource(99))
		banksPer := st.Shard(0).Cache().NumBanks()
		for {
			select {
			case <-stopStorm:
				return
			default:
			}
			gi := rng.Intn(st.NumShards() * banksPer)
			c, bi := st.Shard(gi/banksPer).Cache(), gi%banksPer
			hitTags := rng.Intn(4) == 0
			c.WithBankLock(bi, func(data, tags *twod.Array) {
				a := data
				if hitTags {
					a = tags
				}
				p := storm.NextEvent(a.Rows(), a.RowBits())
				for _, fl := range p.Flips {
					w, _ := a.Layout().Locate(fl.Col)
					if _, ok := a.TryReadUint64(fl.Row, w); ok {
						a.FlipBit(fl.Row, fl.Col)
					}
				}
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const (
		goroutinesPerClient = 4
		opsPerGoroutine     = 150
		lines               = 64
	)
	okErr := func(err error) bool {
		return err == nil ||
			errors.Is(err, pcache.ErrUncorrectable) ||
			errors.Is(err, resilience.ErrRecoveryInProgress) ||
			errors.Is(err, context.DeadlineExceeded)
	}
	var wg sync.WaitGroup
	for ci, cl := range clients {
		for g := 0; g < goroutinesPerClient; g++ {
			wg.Add(1)
			go func(ci, g int, cl *Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ci*100 + g)))
				buf := make([]byte, lineBytes)
				for i := 0; i < opsPerGoroutine; i++ {
					a := uint64(rng.Intn(lines)) * lineBytes
					var err error
					switch rng.Intn(10) {
					case 0, 1, 2:
						rng.Read(buf)
						err = cl.WriteCtx(context.Background(), a, buf)
					case 3, 4, 5:
						_, err = cl.ReadCtx(context.Background(), a, lineBytes)
					case 6:
						ops := make([]pcache.ReadOp, 4)
						for j := range ops {
							ops[j] = pcache.ReadOp{Addr: uint64(rng.Intn(lines)) * lineBytes, Dst: make([]byte, lineBytes)}
						}
						var terr error
						if _, terr = cl.ReadBatchCtx(context.Background(), ops); terr != nil {
							t.Errorf("hammer %d/%d: ReadBatch transport: %v", ci, g, terr)
							return
						}
						for j := range ops {
							if !okErr(ops[j].Err) {
								t.Errorf("hammer %d/%d: batch read op err %v", ci, g, ops[j].Err)
							}
						}
					case 7:
						ops := make([]pcache.WriteOp, 4)
						for j := range ops {
							d := make([]byte, lineBytes)
							rng.Read(d)
							ops[j] = pcache.WriteOp{Addr: uint64(rng.Intn(lines)) * lineBytes, Data: d}
						}
						var terr error
						if _, terr = cl.WriteBatchCtx(context.Background(), ops); terr != nil {
							t.Errorf("hammer %d/%d: WriteBatch transport: %v", ci, g, terr)
							return
						}
						for j := range ops {
							if !okErr(ops[j].Err) {
								t.Errorf("hammer %d/%d: batch write op err %v", ci, g, ops[j].Err)
							}
						}
					case 8:
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
						_, err = cl.ReadCtx(ctx, a, lineBytes)
						cancel()
					default:
						err = cl.FlushCtx(context.Background())
					}
					if !okErr(err) {
						t.Errorf("hammer %d/%d op %d: %v", ci, g, i, err)
						return
					}
				}
			}(ci, g, cl)
		}
	}
	wg.Wait()
	close(stopStorm)
	<-stormDone
}
