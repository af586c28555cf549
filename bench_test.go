package twodcache

// One benchmark per paper table/figure (the regeneration harness), plus
// micro-benchmarks for the core data-path operations. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig. 5/6 benches run reduced cycle counts per iteration; use
// cmd/repro -full for paper-scale sampling.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
	"twodcache/internal/experiments"
	"twodcache/internal/fault"
	"twodcache/internal/redundancy"
	"twodcache/internal/sim"
	"twodcache/internal/twod"
	"twodcache/internal/workload"
	"twodcache/internal/yield"
)

func benchOpts() experiments.Options {
	return experiments.Options{Samples: 1, Warmup: 10000, Measure: 10000, Trials: 2, Seed: 1}
}

// --- per-figure regeneration benches ------------------------------------

func BenchmarkFig1_CodeStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig1b().Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig1_CodeEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig1c().Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig2_Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig2()) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig3_Coverage(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig3(opt).Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable1_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Render() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig5_IPCLoss_Fat(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("OLTP")
	for i := 0; i < b.N; i++ {
		rep, err := sim.PerformanceLoss(sim.FatConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, opt.Samples, opt.Warmup, opt.Measure)
		if err != nil || rep.Samples == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_IPCLoss_Lean(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("OLTP")
	for i := 0; i < b.N; i++ {
		rep, err := sim.PerformanceLoss(sim.LeanConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, opt.Samples, opt.Warmup, opt.Measure)
		if err != nil || rep.Samples == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_AccessBreakdown(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("Web")
	for i := 0; i < b.N; i++ {
		_, l2, err := sim.AccessBreakdown(sim.LeanConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, 1, opt.Warmup, opt.Measure)
		if err != nil || l2[4] <= 0 {
			b.Fatal("no extra reads")
		}
	}
}

func BenchmarkFig7_Overheads(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig7(false, opt).Rows) == 0 ||
			len(experiments.Fig7(true, opt).Rows) == 0 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig8_Yield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8a().Rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig8_Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8b().Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// --- core data-path micro-benches ----------------------------------------

func paperArray() *twod.Array {
	return twod.MustArray(twod.Config{
		Rows: 256, WordsPerRow: 4,
		Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 32,
	})
}

func BenchmarkArrayWrite(b *testing.B) {
	a := paperArray()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.WriteUint64(i%256, i%4, 0xDEADBEEF)
	}
}

func BenchmarkArrayReadClean(b *testing.B) {
	a := paperArray()
	for r := 0; r < 256; r++ {
		for w := 0; w < 4; w++ {
			a.WriteUint64(r, w, 0xDEADBEEF)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := a.ReadUint64(i%256, i%4); st != twod.ReadClean {
			b.Fatal("unexpected status")
		}
	}
}

func BenchmarkRecovery32x32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := paperArray()
		for r := 0; r < 32; r++ {
			for c := 0; c < 32; c++ {
				if rng.Intn(2) == 1 {
					a.FlipBit(64+r, 64+c)
				}
			}
		}
		b.StartTimer()
		if rep := a.Recover(); !rep.Success {
			b.Fatal("recovery failed")
		}
	}
}

func BenchmarkEDC8Syndrome(b *testing.B) {
	e := ecc.MustEDC(64, 8)
	cw := MakeCodeword(make([]uint64, 2), 72)
	e.EncodeInto(cw, MakeCodeword([]uint64{0x123456789ABCDEF0}, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.SyndromeWords(cw) != 0 {
			b.Fatal("dirty syndrome")
		}
	}
}

func BenchmarkSECDEDDecode(b *testing.B) {
	s := ecc.MustSECDED(64)
	clean := MakeCodeword(make([]uint64, 2), 72)
	s.EncodeInto(clean, MakeCodeword([]uint64{0x123456789ABCDEF0}, 64))
	cw := MakeCodeword(make([]uint64, 2), 72)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw.CopyFrom(clean)
		cw.Flip(i % 72)
		if res, _ := s.DecodeInPlace(cw); res != ecc.Corrected {
			b.Fatal("not corrected")
		}
	}
}

func BenchmarkOECNEDDecode8Errors(b *testing.B) {
	c, err := ecc.NewOECNED(64)
	if err != nil {
		b.Fatal(err)
	}
	n := c.DataBits() + c.CheckBits()
	clean := MakeCodeword(make([]uint64, 2), n)
	c.EncodeInto(clean, MakeCodeword([]uint64{0x123456789ABCDEF0}, 64))
	cw := MakeCodeword(make([]uint64, 2), n)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cw.CopyFrom(clean)
		for _, p := range rng.Perm(n)[:8] {
			cw.Flip(p)
		}
		b.StartTimer()
		if res, _ := c.DecodeInPlace(cw); res != ecc.Corrected {
			b.Fatal("not corrected")
		}
	}
}

func BenchmarkSimCycle_Fat(b *testing.B) {
	prof, _ := workload.ByName("OLTP")
	s, err := sim.New(sim.FatConfig(),
		sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true}, prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkYieldCurve(b *testing.B) {
	g := yield.Geometry16MBL2()
	pol := yield.Policy{ECC: true, SpareRows: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if yield.Yield(g, 2400, pol) < 0.5 {
			b.Fatal("unexpected yield")
		}
	}
}

func BenchmarkCoverageCampaign(b *testing.B) {
	s := fault.TwoDScheme{Cfg: twod.Config{
		Rows: 64, WordsPerRow: 2,
		Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 16,
	}}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := fault.CoverageMatrix(s, rng, []int{8}, []int{8}, 1)
		if cells[0].Rate() != 1 {
			b.Fatal("coverage hole")
		}
	}
}

// --- substrate micro-benches (added subsystems) ---------------------------

func BenchmarkMarchCMinus64x576(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arr := MustBenchFaultyArray(64, 576)
		b.StartTimer()
		if !RunMarch(arr, MarchCMinus()).Passed() {
			b.Fatal("clean array failed")
		}
	}
}

func BenchmarkSelfRepair(b *testing.B) {
	cfg := RepairConfig{Rows: 64, Cols: 576, SpareRows: 2, WordBits: 72, ECCSingleBit: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arr := MustBenchFaultyArray(64, 576)
		_ = arr.Inject(CellFault{Row: 7, Col: 70, Kind: StuckAt1})
		_ = arr.Inject(CellFault{Row: 30, Col: 300, Kind: StuckAt0})
		b.StartTimer()
		out, err := SelfRepair(arr, cfg, MarchCMinus())
		if err != nil || !out.Repaired {
			b.Fatalf("repair failed: %v %+v", err, out)
		}
	}
}

func BenchmarkTraceRecordReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := RecordTrace(&buf, "OLTP", 0, 0, 1, 10000); err != nil {
			b.Fatal(err)
		}
		src, err := ReplayTrace(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10000; j++ {
			src.Next()
		}
	}
}

func BenchmarkRepairAllocation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := RepairConfig{Rows: 512, Cols: 1152, SpareRows: 8, SpareCols: 8, WordBits: 72, ECCSingleBit: true}
	var faults []redundancy.Fault
	for i := 0; i < 60; i++ {
		faults = append(faults, redundancy.Fault{Row: rng.Intn(512), Col: rng.Intn(1152)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllocateRepairs(cfg, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// MustBenchFaultyArray builds a defect-injectable array or fails the
// benchmark setup.
func MustBenchFaultyArray(rows, cols int) *FaultyArray {
	a, err := NewFaultyArray(rows, cols)
	if err != nil {
		panic(err)
	}
	return a
}

// prefillLines writes one byte to each of the first n lines in a
// single batch, on a bare ProtectedCache or any CacheStore.
func prefillLines(b *testing.B, w interface {
	WriteBatch(ops []BatchWriteOp) (failed int)
}, n int) {
	b.Helper()
	ops := make([]BatchWriteOp, n)
	for l := range ops {
		ops[l] = BatchWriteOp{Addr: uint64(l) * 64, Data: []byte{byte(l)}}
	}
	if failed := w.WriteBatch(ops); failed != 0 {
		b.Fatalf("prefill: %d writes failed", failed)
	}
}

// BenchmarkPCacheParallelRead is the contention benchmark for the
// banked concurrent cache: all workers issue clean-hit 8-byte reads as
// 1-op ReadBatch calls, the one data path. Each takes its bank's lock
// and checks the whole line, so readers of different banks proceed in
// parallel and readers of one bank serialise. Compare -cpu 1,2,4,8
// runs to see the scaling; a clean hit allocates nothing.
func BenchmarkPCacheParallelRead(b *testing.B) {
	backing := NewMemoryBacking(64)
	c, err := NewProtectedCache(ProtectedCacheConfig{
		Sets: 256, Ways: 4, LineBytes: 64, Banks: 8,
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill exactly sets*ways lines so every read below is a hit.
	prefillLines(b, c, 256*4)
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	var workerSeed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct seeds: identically seeded workers walk the same bank
		// sequence in lockstep, manufacturing worst-case lock collisions.
		rng := rand.New(rand.NewSource(workerSeed.Add(1)))
		op := []BatchReadOp{{Dst: make([]byte, 8)}}
		for pb.Next() {
			op[0].Addr = uint64(rng.Intn(256*4)) * 64
			if c.ReadBatch(op) != 0 {
				b.Fatal(op[0].Err)
			}
		}
	})
}

// BenchmarkScrubberSweep measures one full background scrubbing pass
// (2D recovery over every bank's data and tag arrays) on a clean,
// fully populated cache — the steady-state cost the scrub interval
// must amortise.
func BenchmarkScrubberSweep(b *testing.B) {
	backing := NewMemoryBacking(64)
	eng, err := NewResilientCache(ProtectedCacheConfig{
		Sets: 256, Ways: 4, LineBytes: 64, Banks: 8,
	}, backing, ResilienceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	prefillLines(b, eng, 256*4)
	s := eng.NewScrubber(ScrubberConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Sweep() {
			b.Fatal("clean cache failed a sweep")
		}
	}
}

func BenchmarkProtectedCacheAccess(b *testing.B) {
	backing := NewMemoryBacking(64)
	c, err := NewProtectedCache(ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64}, backing)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	wop := []BatchWriteOp{{Data: make([]byte, 1)}}
	rop := []BatchReadOp{{Dst: make([]byte, 1)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(1 << 15))
		if i%3 == 0 {
			wop[0].Addr, wop[0].Data[0] = addr, byte(i)
			if c.WriteBatch(wop) != 0 {
				b.Fatal(wop[0].Err)
			}
			continue
		}
		rop[0].Addr = addr
		if c.ReadBatch(rop) != 0 {
			b.Fatal(rop[0].Err)
		}
	}
}

// --- word-kernel micro-benches ------------------------------------------
//
// One encode and one decode bench per representative code, all through
// the allocation-free kernel interface (EncodeInto/DecodeInPlace).
// results/BENCH_kernels.md tracks these against the pre-kernel Vector
// path.

func kernelBenchCodes(b *testing.B) []ecc.Code {
	b.Helper()
	dec, err := ecc.NewDECTED(64)
	if err != nil {
		b.Fatal(err)
	}
	return []ecc.Code{
		ecc.MustEDC(64, 8),
		ecc.MustEDC(64, 16),
		ecc.MustSECDED(64),
		dec,
	}
}

func BenchmarkKernelEncode(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		b.Run(c.Name(), func(b *testing.B) {
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(ecc.CodewordBits(c))), ecc.CodewordBits(c))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.EncodeInto(cw, data)
			}
		})
	}
}

func BenchmarkKernelDecodeClean(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		b.Run(c.Name(), func(b *testing.B) {
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(ecc.CodewordBits(c))), ecc.CodewordBits(c))
			c.EncodeInto(cw, data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, _ := c.DecodeInPlace(cw); res != ecc.Clean {
					b.Fatal("clean codeword decoded dirty")
				}
			}
		})
	}
}

func BenchmarkKernelDecodeOneError(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		if c.CorrectCapability() == 0 {
			continue // detection-only codes cannot run a correct loop
		}
		b.Run(c.Name(), func(b *testing.B) {
			n := ecc.CodewordBits(c)
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(n)), n)
			c.EncodeInto(cw, data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw.Flip(i % n)
				if res, _ := c.DecodeInPlace(cw); res != ecc.Corrected {
					b.Fatal("single error not corrected")
				}
			}
		})
	}
}

// --- sharded store benches ----------------------------------------------
//
// BenchmarkShardedParallelRead sweeps the shard count with a FIXED
// per-shard geometry (scale-out: N shards = N× banks and capacity) and
// a fixed 256-line working set, so the curve isolates what sharding
// buys parallel readers: more independent lock domains and counters.
// Run with -cpu 1,2,4,8 — on a single core the curve is flat (there is
// no parallelism to unlock); results/BENCH_shards.md records both.
func BenchmarkShardedParallelRead(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			backing := NewMemoryBacking(64)
			s, err := NewShardedCache(ShardedCacheConfig{
				Shards: shards,
				Cache:  ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Banks: 8},
			}, backing)
			if err != nil {
				b.Fatal(err)
			}
			const lines = 256 // striped across all shards, always resident
			prefillLines(b, s, lines)
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			var workerSeed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(workerSeed.Add(1)))
				op := []BatchReadOp{{Dst: make([]byte, 8)}}
				for pb.Next() {
					op[0].Addr = uint64(rng.Intn(lines)) * 64
					if s.ReadBatch(op) != 0 {
						b.Fatal(op[0].Err)
					}
				}
			})
		})
	}
}

// benchBatchStore builds the 4-shard store and the 64-op working set
// (8 spans over each of 8 resident lines) shared by the batch-vs-single
// pair below, so the two benches measure identical work.
func benchBatchStore(b *testing.B) (*ShardedCache, []BatchReadOp) {
	b.Helper()
	backing := NewMemoryBacking(64)
	s, err := NewShardedCache(ShardedCacheConfig{
		Shards: 4,
		Cache:  ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Banks: 8},
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	fill := make([]BatchWriteOp, 8)
	for l := range fill {
		fill[l] = BatchWriteOp{Addr: uint64(l) * 64, Data: bytes.Repeat([]byte{byte(l)}, 64)}
	}
	if failed := s.WriteBatch(fill); failed != 0 {
		b.Fatalf("prefill: %d writes failed", failed)
	}
	ops := make([]BatchReadOp, 64)
	for i := range ops {
		line, off := uint64(i%8), uint64(i/8)*8
		ops[i] = BatchReadOp{Addr: line*64 + off, Dst: make([]byte, 8)}
	}
	return s, ops
}

// BenchmarkStoreReadBatch reads the 64-op set through ReadBatch: one
// bank-lock acquisition and one tag lookup per distinct line, spans
// served from a single line read-out.
func BenchmarkStoreReadBatch(b *testing.B) {
	s, ops := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if failed := s.ReadBatch(ops); failed != 0 {
			b.Fatal("batch read failed")
		}
	}
}

// BenchmarkStoreSingleReads is the same 64 ops issued one at a time,
// each as a 1-op ReadBatch on the store — the baseline ReadBatch must
// beat (64 lock acquisitions, 64 tag lookups, 64 line read-outs).
func BenchmarkStoreSingleReads(b *testing.B) {
	s, ops := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			if s.ReadBatch(ops[j:j+1]) != 0 {
				b.Fatal(ops[j].Err)
			}
		}
	}
}
