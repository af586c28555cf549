package cluster

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"twodcache/internal/pcache"
)

// twoFakes builds a cluster over two healthy in-memory replicas, with
// hedging on and line 0 written.
func twoFakes(t *testing.T) *Client {
	t.Helper()
	c := newCluster(t, Config{
		Endpoints:      []string{"a", "b"},
		Dial:           fakeDialer(map[string]Conn{"a": newFakeConn(), "b": newFakeConn()}),
		RepairInterval: time.Hour,
		Seed:           20,
	})
	if err := c.WriteCtx(context.Background(), 0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

// twoReplicas builds a cluster over two loopback netsrv replicas. Its
// hedge delay is floored at 50ms so the hedge timer runs on every read
// but fires only for a read stalled that long.
func twoReplicas(t testing.TB) *Client {
	t.Helper()
	a, b := startReplica(t), startReplica(t)
	c, err := New(Config{
		Endpoints:      []string{a.addr, b.addr},
		HedgeMin:       50 * time.Millisecond,
		HedgeMax:       50 * time.Millisecond,
		RepairInterval: time.Hour,
		Seed:           21,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// allocCase is one pinned call: at most max allocations per call.
type allocCase struct {
	name string
	max  float64
	call func(c *Client) error
}

// allocCases builds the pinned calls, with batches of each size in
// nOps over the first lines.
func allocCases(nOps ...int) []allocCase {
	ctx := context.Background()
	data := pattern(0, 2)
	cases := []allocCase{
		{"WriteCtx", 0, func(c *Client) error {
			return c.WriteCtx(ctx, 0, data)
		}},
		{"ReadCtx", 1, func(c *Client) error {
			_, err := c.ReadCtx(ctx, 0, lineBytes)
			return err
		}},
	}
	for _, n := range nOps {
		rops := make([]pcache.ReadOp, n)
		wops := make([]pcache.WriteOp, n)
		for i := range rops {
			addr := uint64(i) * lineBytes
			rops[i] = pcache.ReadOp{Addr: addr, Dst: make([]byte, lineBytes)}
			wops[i] = pcache.WriteOp{Addr: addr, Data: pattern(addr, 2)}
		}
		cases = append(cases,
			allocCase{"WriteBatchCtx/" + strconv.Itoa(n), 0, func(c *Client) error {
				return batchErr(c.WriteBatchCtx(ctx, wops))
			}},
			allocCase{"ReadBatchCtx/" + strconv.Itoa(n), 0, func(c *Client) error {
				return batchErr(c.ReadBatchCtx(ctx, rops))
			}})
	}
	return cases
}

func batchErr(failed int, err error) error {
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d ops failed", failed)
	}
	return err
}

// pinClusterAllocs runs each case against c as a subtest, in order, and
// fails any that allocates more than its pin. AllocsPerRun counts the
// process's global mallocs, so a loopback case covers both sides of
// every round trip; its integer average absorbs the odd pool refill.
func pinClusterAllocs(t *testing.T, c *Client, cases []allocCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var callErr error
			got := testing.AllocsPerRun(200, func() {
				if err := tc.call(c); err != nil {
					callErr = err
				}
			})
			if callErr != nil {
				t.Fatal(callErr)
			}
			t.Logf("%.0f allocs/call", got)
			if got > tc.max {
				t.Fatalf("%.0f allocs/call, want <= %.0f", got, tc.max)
			}
		})
	}
}

// TestClusterAllocs pins the per-call allocations of the four entry
// points over two fake replicas with hedging on: a call allocates
// nothing of its own, and a read keeps only the slice ReadCtx returns.
// The fakes allocate only where a netsrv client would.
func TestClusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	pinClusterAllocs(t, twoFakes(t), allocCases(1, 8))
}

// TestClusterLoopbackAllocs pins the same over two loopback netsrv
// replicas, client and servers together.
func TestClusterLoopbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	pinClusterAllocs(t, twoReplicas(t), allocCases(32))
}
