package cluster

import (
	"context"
	"testing"
	"time"

	"twodcache/internal/pcache"
)

// twoFakes builds a cluster over two healthy in-memory replicas with
// every line of the test span written once.
func twoFakes(t *testing.T, hedge bool) *Client {
	t.Helper()
	c := newCluster(t, Config{
		Endpoints:      []string{"a", "b"},
		Dial:           fakeDialer(map[string]Conn{"a": newFakeConn(), "b": newFakeConn()}),
		DisableHedging: !hedge,
		RepairInterval: time.Hour,
		Seed:           20,
	})
	if err := c.Write(0, pattern(0, 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterAllocs pins the per-call allocations of the four entry
// points at n=1 over two fake replicas, so the one-plane design cannot
// quietly grow the single-op cost.
func TestClusterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race")
	}
	ctx := context.Background()
	data := pattern(0, 2)
	rop := []pcache.ReadOp{{Addr: 0, Dst: make([]byte, lineBytes)}}
	wop := []pcache.WriteOp{{Addr: 0, Data: data}}
	for _, tc := range []struct {
		name  string
		hedge bool
		max   float64
		call  func(c *Client) error
	}{
		{"ReadCtx", true, 11, func(c *Client) error {
			_, err := c.ReadCtx(ctx, 0, lineBytes)
			return err
		}},
		{"WriteCtx", true, 8, func(c *Client) error {
			return c.WriteCtx(ctx, 0, data)
		}},
		{"ReadBatchCtx/1", false, 11, func(c *Client) error {
			_, err := c.ReadBatchCtx(ctx, rop)
			return err
		}},
		{"WriteBatchCtx/1", true, 8, func(c *Client) error {
			_, err := c.WriteBatchCtx(ctx, wop)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := twoFakes(t, tc.hedge)
			var callErr error
			got := testing.AllocsPerRun(200, func() {
				if err := tc.call(c); err != nil {
					callErr = err
				}
			})
			if callErr != nil {
				t.Fatal(callErr)
			}
			t.Logf("%s: %.0f allocs/call", tc.name, got)
			if got > tc.max {
				t.Fatalf("%s: %.0f allocs/call, want <= %.0f", tc.name, got, tc.max)
			}
		})
	}
}
