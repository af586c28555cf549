package cluster

import (
	"context"
	"testing"

	"twodcache/internal/pcache"
)

// The BenchmarkCluster* benches run one call per iteration through a
// cluster over two loopback netsrv replicas in this process (see
// twoReplicas), so allocs/op counts the client and both servers;
// `scripts/bench.sh -netalloc` reports them.

func BenchmarkClusterRead(b *testing.B) {
	c := twoReplicas(b)
	if err := c.WriteCtx(context.Background(), 0, pattern(0, 1)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadCtx(ctx, 0, lineBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterWrite(b *testing.B) {
	c := twoReplicas(b)
	data := pattern(0, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCtx(ctx, uint64(i%16)*lineBytes, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOps32 writes the first 32 lines through c and returns a write
// and a read batch over them.
func benchOps32(b *testing.B, c *Client) ([]pcache.WriteOp, []pcache.ReadOp) {
	wops := make([]pcache.WriteOp, 32)
	rops := make([]pcache.ReadOp, 32)
	for i := range wops {
		addr := uint64(i) * lineBytes
		wops[i] = pcache.WriteOp{Addr: addr, Data: pattern(addr, 1)}
		rops[i] = pcache.ReadOp{Addr: addr, Dst: make([]byte, lineBytes)}
	}
	if err := batchErr(c.WriteBatchCtx(context.Background(), wops)); err != nil {
		b.Fatal(err)
	}
	return wops, rops
}

func BenchmarkClusterReadBatch32(b *testing.B) {
	c := twoReplicas(b)
	_, rops := benchOps32(b, c)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batchErr(c.ReadBatchCtx(ctx, rops)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterWriteBatch32(b *testing.B) {
	c := twoReplicas(b)
	wops, _ := benchOps32(b, c)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := batchErr(c.WriteBatchCtx(ctx, wops)); err != nil {
			b.Fatal(err)
		}
	}
}
