package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twodcache"
	"twodcache/internal/fault"
	"twodcache/internal/twod"
)

// verifier shadow-checks one worker's lines against the loss-epoch
// oracle, as cacheload does over the wire: a read that differs from the
// last acked write is legitimate only if the owning set's loss epoch
// advanced since that write; otherwise it is silent corruption. Workers
// own disjoint lines, so every mismatch is attributable.
type verifier struct {
	epochOf func(addr uint64) uint64
	base    uint64   // address of the first owned line
	data    []byte   // last acked value of every line
	valid   []bool   // data holds the line's known contents
	epochs  []uint64 // epoch sampled before the acked write was issued

	silent, accounted uint64
}

func newVerifier(epochOf func(uint64) uint64, firstLine, lines int) verifier {
	return verifier{
		epochOf: epochOf,
		base:    uint64(firstLine) * lineBytes,
		data:    make([]byte, lines*lineBytes),
		valid:   make([]bool, lines),
		epochs:  make([]uint64, lines),
	}
}

func (v *verifier) addr(li int) uint64 { return v.base + uint64(li)*lineBytes }
func (v *verifier) line(li int) []byte { return v.data[li*lineBytes : (li+1)*lineBytes] }

// before samples the epoch a write's shadow entry will carry. Sampling
// before the write is conservative in the right direction: an advance
// during the write can only turn a corruption into accounted loss,
// never the reverse.
func (v *verifier) before(li int) uint64 { return v.epochOf(v.addr(li)) }

func (v *verifier) wrote(li int, data []byte, epoch uint64, err error) {
	if err != nil {
		v.valid[li] = false // the write may or may not have landed
		return
	}
	copy(v.line(li), data)
	v.valid[li] = true
	v.epochs[li] = epoch
}

func (v *verifier) read(li int, got []byte, err error) {
	if err != nil {
		v.valid[li] = false
		return
	}
	if !v.valid[li] || bytes.Equal(got, v.line(li)) {
		return
	}
	if now := v.epochOf(v.addr(li)); now > v.epochs[li] {
		v.accounted++
		v.valid[li] = false
		return
	}
	v.silent++
	fmt.Fprintf(os.Stderr, "bench: SILENT corruption at %#x (epoch %d)\n", v.addr(li), v.epochs[li])
}

// worker is one closed-loop caller: it issues its next call only after
// the previous one returned.
type worker struct {
	verifier
	cl  client
	wl  workload
	rng *rand.Rand
	gen uint64 // splitmix64 state for fresh line values
	n   int    // lines owned

	bufs   [][]byte // one line per batch slot: write payloads and read destinations
	lis    []int
	epochs []uint64
	rops   []twodcache.BatchReadOp
	wops   []twodcache.BatchWriteOp

	storm *stormClock // nil without a fault storm

	// Measured-window counts; the worker owns them until it stops.
	calls, ops, failed uint64
	readLat, writeLat  *latencyHist
}

func newWorker(s *stack, w int, seed int64) *worker {
	n := s.wl.lines / numWorkers
	slots := max(s.wl.batch, frameOps) // prefill always writes full frames
	wk := &worker{
		verifier: newVerifier(s.epoch, w*n, n),
		cl:       s.clients[w],
		wl:       s.wl,
		rng:      rand.New(rand.NewSource(fault.DeriveSeed(seed, uint64(w)))),
		gen:      uint64(fault.DeriveSeed(seed, uint64(numWorkers+w))),
		n:        n,
		bufs:     make([][]byte, slots),
		lis:      make([]int, slots),
		epochs:   make([]uint64, slots),
		rops:     make([]twodcache.BatchReadOp, slots),
		wops:     make([]twodcache.BatchWriteOp, slots),
	}
	for j := range wk.bufs {
		wk.bufs[j] = make([]byte, lineBytes)
	}
	return wk
}

// fresh fills buf with the next value from the worker's stream.
func (w *worker) fresh(buf []byte) {
	for i := 0; i < lineBytes; i += 8 {
		w.gen += 0x9e3779b97f4a7c15
		z := w.gen
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[i:], z^z>>31)
	}
}

// value fills buf with the value the next write to line li stores: a
// silent write rewrites the line's current value.
func (w *worker) value(buf []byte, li int) {
	if w.wl.silentFrac > 0 && w.valid[li] && w.rng.Float64() < w.wl.silentFrac {
		copy(buf, w.line(li))
		return
	}
	w.fresh(buf)
}

// prefill writes every owned line once, in order, in full batch frames;
// the workers prefill concurrently.
func (w *worker) prefill() error {
	ctx := context.Background()
	for off := 0; off < w.n; off += frameOps {
		m := min(frameOps, w.n-off)
		for j := 0; j < m; j++ {
			w.fresh(w.bufs[j])
			w.epochs[j] = w.before(off + j)
			w.wops[j] = twodcache.BatchWriteOp{Addr: w.addr(off + j), Data: w.bufs[j]}
		}
		if _, err := w.cl.WriteBatchCtx(ctx, w.wops[:m]); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for j := 0; j < m; j++ {
			if err := w.wops[j].Err; err != nil {
				return fmt.Errorf("prefill %#x: %w", w.addr(off+j), err)
			}
			w.wrote(off+j, w.bufs[j], w.epochs[j], nil)
		}
	}
	return nil
}

// step makes one client call: one op, or one batch frame.
func (w *worker) step(record bool) {
	ctx := context.Background()
	k := w.wl.batch
	for j := 0; j < k; j++ {
		w.lis[j] = w.rng.Intn(w.n)
	}
	var (
		d      time.Duration
		failed uint64
		lat    = w.readLat
	)
	if w.rng.Float64() < w.wl.writeFrac {
		lat = w.writeLat
		for j, li := range w.lis[:k] {
			w.value(w.bufs[j], li)
			w.epochs[j] = w.before(li)
			w.wops[j] = twodcache.BatchWriteOp{Addr: w.addr(li), Data: w.bufs[j]}
		}
		t0 := time.Now()
		var err error
		if k == 1 {
			w.wops[0].Err = w.cl.WriteCtx(ctx, w.wops[0].Addr, w.bufs[0])
		} else {
			_, err = w.cl.WriteBatchCtx(ctx, w.wops[:k])
		}
		d = time.Since(t0)
		for j, li := range w.lis[:k] {
			e := err
			if e == nil {
				e = w.wops[j].Err
			}
			if e != nil {
				failed++
			}
			w.wrote(li, w.bufs[j], w.epochs[j], e)
		}
	} else if k == 1 {
		t0 := time.Now()
		got, err := w.cl.ReadCtx(ctx, w.addr(w.lis[0]), lineBytes)
		d = time.Since(t0)
		if err != nil {
			failed++
		}
		w.read(w.lis[0], got, err)
	} else {
		for j, li := range w.lis[:k] {
			w.rops[j] = twodcache.BatchReadOp{Addr: w.addr(li), Dst: w.bufs[j]}
		}
		t0 := time.Now()
		_, err := w.cl.ReadBatchCtx(ctx, w.rops[:k])
		d = time.Since(t0)
		for j, li := range w.lis[:k] {
			e := err
			if e == nil {
				e = w.rops[j].Err
			}
			if e != nil {
				failed++
			}
			w.read(li, w.bufs[j], e)
		}
	}
	if record {
		w.calls++
		w.ops += uint64(k)
		w.failed += failed
		lat.add(d)
	}
	if w.storm != nil {
		w.storm.tick(uint64(k))
	}
}

// stormClock ties the fault rate to completed ops, not wall time, so a
// faster program cannot dilute recovery's share of the work.
type stormClock struct {
	every uint64
	done  atomic.Uint64
	kick  chan struct{} // capacity 1: a pending kick covers every later one
}

func (c *stormClock) tick(ops uint64) {
	if n := c.done.Add(ops); n/c.every != (n-ops)/c.every {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// injector is cachenetd's fault storm: each event strikes a uniformly
// chosen bank's data array (tags one time in four) with a multi-bit
// footprint, flipping only cells of words that currently read clean.
type injector struct {
	st     *twodcache.ShardedCache
	storm  *fault.Storm
	rng    *rand.Rand
	events uint64
}

func (in *injector) run(c *stormClock, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-c.kick:
		}
		for due := c.done.Load() / c.every; in.events < due; in.events++ {
			in.inject()
		}
	}
}

func (in *injector) inject() {
	banksPer := in.st.Shard(0).Cache().NumBanks()
	gi := in.rng.Intn(in.st.NumShards() * banksPer)
	c, bi := in.st.Shard(gi/banksPer).Cache(), gi%banksPer
	hitTags := in.rng.Intn(4) == 0
	c.WithBankLock(bi, func(data, tags *twod.Array) {
		a := data
		if hitTags {
			a = tags
		}
		p := in.storm.NextEvent(a.Rows(), a.RowBits())
		for _, fl := range p.Flips {
			w, _ := a.Layout().Locate(fl.Col)
			if _, ok := a.TryReadUint64(fl.Row, w); ok {
				a.FlipBit(fl.Row, fl.Col)
			}
		}
	})
}

// runConfig is one run: setups stack builds (the last one is measured),
// a warm-up, then the measured window.
type runConfig struct {
	wl              workload
	seed            int64
	warmup, measure time.Duration
	setups          int
	traced          bool
}

// runResult is what one run measured.
type runResult struct {
	setups                 []time.Duration
	wall                   time.Duration
	calls, ops, failed     uint64
	silent, accounted      uint64
	readLat, writeLat      *latencyHist
	cpu                    time.Duration
	mallocs                uint64
	injected               uint64
	before, after          []*twodcache.MetricsSnapshot // per replica
	clusterBefore, cluster *twodcache.MetricsSnapshot
	tracer                 *tracer
	shards                 int
}

// setUp builds a stack and prefills its working set.
func setUp(wl workload, seed int64, t *tracer) (*stack, []*worker, error) {
	st, err := newStack(wl, seed, t)
	if err != nil {
		return nil, nil, err
	}
	ws := make([]*worker, numWorkers)
	errs := make([]error, numWorkers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newWorker(st, i, seed)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ws[i].prefill()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, ws, nil
}

func run(cfg runConfig) (res *runResult, err error) {
	res = &runResult{readLat: newLatencyHist(), writeLat: newLatencyHist(), shards: cfg.wl.shards}
	if cfg.traced {
		res.tracer = newTracer()
	}
	var (
		st *stack
		ws []*worker
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		// Collect the last stack now rather than inside the next setup.
		runtime.GC()
		t0 := time.Now()
		if st, ws, err = setUp(cfg.wl, cfg.seed, res.tracer); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
	}()
	for _, w := range ws {
		w.readLat, w.writeLat = newLatencyHist(), newLatencyHist()
	}

	stopStorm := make(chan struct{})
	var in *injector
	var stormWG sync.WaitGroup
	if every := cfg.wl.stormEvery; every > 0 {
		clock := &stormClock{every: uint64(every), kick: make(chan struct{}, 1)}
		for _, w := range ws {
			w.storm = clock
		}
		in = &injector{
			st:    st.replicas[0].store,
			storm: fault.NewStorm(fault.StormConfig{Seed: cfg.seed}),
			rng:   rand.New(rand.NewSource(cfg.seed + 7)),
		}
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			in.run(clock, stopStorm)
		}()
	}

	var stop, measuring atomic.Bool
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !stop.Load() {
				w.step(measuring.Load())
			}
		}(w)
	}

	time.Sleep(cfg.warmup)
	res.before, res.clusterBefore = st.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	if res.tracer != nil {
		res.tracer.on.Store(true)
	}
	t0 := time.Now()
	measuring.Store(true)
	time.Sleep(cfg.measure)
	stop.Store(true)
	wg.Wait()
	res.wall = time.Since(t0)
	if res.tracer != nil {
		res.tracer.on.Store(false)
	}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.after, res.cluster = st.snapshot()
	res.mallocs = m1.Mallocs - m0.Mallocs
	close(stopStorm)
	stormWG.Wait()
	if in != nil {
		res.injected = in.events
	}

	for _, w := range ws {
		res.calls += w.calls
		res.ops += w.ops
		res.failed += w.failed
		res.silent += w.silent
		res.accounted += w.accounted
		res.readLat.merge(w.readLat)
		res.writeLat.merge(w.writeLat)
	}
	return res, nil
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
