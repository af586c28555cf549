package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"twodcache"
)

// client is the op surface a worker drives: a NetClient, a
// ClusterClient, or either behind the tracing decorator.
type client interface {
	ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error)
	WriteCtx(ctx context.Context, addr uint64, data []byte) error
	ReadBatchCtx(ctx context.Context, ops []twodcache.BatchReadOp) (failed int, err error)
	WriteBatchCtx(ctx context.Context, ops []twodcache.BatchWriteOp) (failed int, err error)
}

// replica is one server: the stack cachenetd builds, on loopback.
type replica struct {
	store   *twodcache.ShardedCache
	backing twodcache.CacheBacking // the MapBacking itself, under any decorator
	metrics *twodcache.MetricsRegistry
	srv     *twodcache.NetServer
	addr    string
	served  chan error
}

// stack is everything a run drives, all in this process.
type stack struct {
	wl       workload
	replicas []*replica
	nets     []*twodcache.NetClient
	cluster  *twodcache.ClusterClient
	clusterM *twodcache.MetricsRegistry
	clients  []client // one per worker
}

// lossEpoch is cachenetd's EPOCH oracle: the loss epoch of the set that
// owns addr on its shard.
func lossEpoch(st *twodcache.ShardedCache, addr uint64) uint64 {
	e, la := st.Locate(addr)
	return e.Cache().LossEpoch(int((la / lineBytes) % sets))
}

func newReplica(wl workload, t *tracer) (*replica, error) {
	mem := twodcache.NewMemoryBacking(lineBytes)
	var backing twodcache.CacheBacking = mem
	if t != nil {
		backing = &tracedBacking{CacheBacking: mem, t: t}
	}
	reg := twodcache.NewMetricsRegistry()
	st, err := twodcache.NewShardedCache(twodcache.ShardedCacheConfig{
		Shards: wl.shards,
		Cache: twodcache.ProtectedCacheConfig{
			Sets: sets, Ways: ways, LineBytes: lineBytes, Banks: banks,
		},
		Resilience: twodcache.ResilienceConfig{SpareRows: spareRows, Metrics: reg},
		// The library's default sweep interval (50 ms), not cachenetd's
		// 2 ms: see README.md.
		Scrubber: &twodcache.ScrubberConfig{},
	}, backing)
	if err != nil {
		return nil, err
	}
	var served twodcache.CacheStore = st
	if t != nil {
		served = &tracedStore{CacheStore: st, t: t}
		st.SetEventSink(storeSink{t: t})
		for i := 0; i < st.NumShards(); i++ {
			c := st.Shard(i).Cache()
			for b := 0; b < c.NumBanks(); b++ {
				data, tags := c.BankArrays(b)
				data.SetEventSink(arraySink{t: t}, "data")
				tags.SetEventSink(arraySink{t: t}, "tags")
			}
		}
	}
	srv, err := twodcache.NewNetServer(twodcache.NetServerConfig{
		Store:   served,
		Metrics: reg.WithPrefix("netsrv_"),
		EpochOf: func(a uint64) uint64 { return lossEpoch(st, a) },
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.Start()
	r := &replica{store: st, backing: mem, metrics: reg, srv: srv, addr: l.Addr().String(), served: make(chan error, 1)}
	go func() { r.served <- srv.Serve(l) }()
	return r, nil
}

// close drains the server (which flushes the store) and stops the
// scrubbers.
func (r *replica) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	err = errors.Join(err, <-r.served)
	r.store.Stop()
	return err
}

// newStack builds the replicas and the clients; t nil builds the
// untraced stack.
func newStack(wl workload, seed int64, t *tracer) (*stack, error) {
	s := &stack{wl: wl}
	if err := s.build(seed, t); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) build(seed int64, t *tracer) error {
	wl := s.wl
	for i := 0; i < wl.replicas; i++ {
		r, err := newReplica(wl, t)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		s.replicas = append(s.replicas, r)
	}
	if wl.replicas > 1 {
		addrs := make([]string, len(s.replicas))
		for i, r := range s.replicas {
			addrs[i] = r.addr
		}
		s.clusterM = twodcache.NewMetricsRegistry()
		cfg := twodcache.ClusterConfig{
			Endpoints: addrs,
			Seed:      seed,
			// Workers write whole self-contained lines, so re-applying
			// one is harmless.
			IdempotentWrites: true,
			Metrics:          s.clusterM,
		}
		if t != nil {
			cfg.Dial = func(addr string) (twodcache.ClusterConn, error) {
				c, err := twodcache.DialNet(addr)
				if err != nil {
					return nil, err
				}
				return &tracedConn{ClusterConn: c, t: t}, nil
			}
		}
		cc, err := twodcache.DialCluster(cfg)
		if err != nil {
			return err
		}
		s.cluster = cc
		for w := 0; w < numWorkers; w++ {
			s.clients = append(s.clients, cc)
		}
	} else {
		for i := 0; i < conns; i++ {
			c, err := twodcache.DialNet(s.replicas[0].addr)
			if err != nil {
				return err
			}
			s.nets = append(s.nets, c)
		}
		for w := 0; w < numWorkers; w++ {
			s.clients = append(s.clients, s.nets[w/pipeline])
		}
	}
	if t != nil {
		for w, c := range s.clients {
			s.clients[w] = &tracedClient{client: c, t: t, parents: s.cluster != nil}
		}
	}
	return nil
}

// epoch is the loss-epoch oracle over every replica: the max, as the
// cluster's own Epoch computes it, read in-process with no round trip.
func (s *stack) epoch(addr uint64) uint64 {
	var best uint64
	for _, r := range s.replicas {
		if e := lossEpoch(r.store, addr); e > best {
			best = e
		}
	}
	return best
}

func (s *stack) close() error {
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, c := range s.nets {
		c.Close()
	}
	var err error
	for _, r := range s.replicas {
		err = errors.Join(err, r.close())
	}
	return err
}

// snapshot reads every registry the stack owns.
func (s *stack) snapshot() (replicas []*twodcache.MetricsSnapshot, cluster *twodcache.MetricsSnapshot) {
	for _, r := range s.replicas {
		replicas = append(replicas, r.metrics.Snapshot())
	}
	if s.clusterM != nil {
		cluster = s.clusterM.Snapshot()
	}
	return replicas, cluster
}
