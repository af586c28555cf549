package netsrv

import (
	"context"
	"net"
	"testing"
	"time"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

// benchClient stands a 1-shard store + server on loopback and returns a
// connected client. Benchmarks measure the whole in-process round trip,
// so -benchmem totals cover client AND server allocations per op.
func benchClient(b *testing.B) *Client {
	b.Helper()
	backing := pcache.NewMapBacking(lineBytes)
	st, err := store.New(store.Config{
		Shards:     1,
		Cache:      pcache.Config{Sets: 64, Ways: 2, LineBytes: lineBytes, Banks: 4},
		Resilience: resilience.Config{},
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		cancel()
		<-served
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkNetSingleRead: one deadline-free 1-op BATCH_READ frame per
// op, the frame ReadCtx sends, read into a reused Dst so every
// allocation reported is protocol overhead.
func BenchmarkNetSingleRead(b *testing.B) {
	c := benchClient(b)
	seed := make([]byte, lineBytes)
	for i := range seed {
		seed[i] = byte(i)
	}
	if err := c.WriteCtx(context.Background(), 0, seed); err != nil {
		b.Fatal(err)
	}
	op := []pcache.ReadOp{{Addr: 0, Dst: make([]byte, lineBytes)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if failed, err := c.ReadBatchCtx(context.Background(), op); err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}

// BenchmarkNetSingleWrite: one deadline-free WriteCtx, a 1-op
// BATCH_WRITE frame, per op.
func BenchmarkNetSingleWrite(b *testing.B) {
	c := benchClient(b)
	data := make([]byte, lineBytes)
	for i := range data {
		data[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCtx(context.Background(), uint64(i%16)*lineBytes, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetBatchRead32: one BATCH_READ frame of 32 full-line ops per
// iteration; Dst buffers are caller-owned and reused, so every
// allocation reported is protocol overhead.
func BenchmarkNetBatchRead32(b *testing.B) {
	const batch = 32
	c := benchClient(b)
	data := make([]byte, lineBytes)
	ops := make([]pcache.ReadOp, batch)
	for i := range ops {
		addr := uint64(i) * lineBytes
		if err := c.WriteCtx(context.Background(), addr, data); err != nil {
			b.Fatal(err)
		}
		ops[i] = pcache.ReadOp{Addr: addr, Dst: make([]byte, lineBytes)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed, err := c.ReadBatchCtx(context.Background(), ops)
		if err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}

// BenchmarkNetBatchWrite32: one BATCH_WRITE frame of 32 full-line ops
// per iteration with caller-owned Data buffers.
func BenchmarkNetBatchWrite32(b *testing.B) {
	const batch = 32
	c := benchClient(b)
	ops := make([]pcache.WriteOp, batch)
	for i := range ops {
		data := make([]byte, lineBytes)
		for j := range data {
			data[j] = byte(i + j)
		}
		ops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: data}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed, err := c.WriteBatchCtx(context.Background(), ops)
		if err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}
