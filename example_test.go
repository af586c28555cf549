package twodcache_test

import (
	"fmt"

	"twodcache"
)

// The paper's running configuration: an 8 kB array of 4-way interleaved
// (72,64) EDC8 codewords with 32 vertical parity rows corrects any
// clustered error up to 32x32 bits.
func Example() {
	arr := twodcache.NewPaperArray()
	arr.WriteUint64(0, 0, 0xC0FFEE)

	// A 32x32 single-event upset...
	for r := 0; r < 32; r++ {
		for c := 0; c < 32; c++ {
			arr.FlipBit(r, c)
		}
	}

	// ...is detected by the horizontal code on the next read and
	// repaired by the vertical recovery process.
	data, status := arr.ReadUint64(0, 0)
	fmt.Println(status, data)
	// Output: recovered-2d 12648430
}

// Custom configurations choose the horizontal code, the physical
// interleave degree, and the vertical interleave factor V; coverage is
// V rows by (EDCn detect width x interleave) columns.
func ExampleNewArray() {
	h, err := twodcache.NewEDC(64, 16)
	if err != nil {
		panic(err)
	}
	arr, err := twodcache.NewArray(twodcache.ArrayConfig{
		Rows:           128,
		WordsPerRow:    2,
		Horizontal:     h,
		VerticalGroups: 16,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d words of %d bits, coverage %dx%d bits\n",
		arr.Words(), arr.DataBits(), arr.VerticalGroups(), 16*2)
	// Output: 256 words of 64 bits, coverage 16x32 bits
}

// The BCH baselines are real codecs: OECNED corrects any 8 bit errors
// in a (121,64) codeword.
func ExampleNewOECNED() {
	code, err := twodcache.NewOECNED(64)
	if err != nil {
		panic(err)
	}
	bits := code.DataBits() + code.CheckBits()
	cw := twodcache.MakeCodeword(make([]uint64, (bits+63)/64), bits)
	code.EncodeInto(cw, twodcache.MakeCodeword([]uint64{12345}, 64))
	for i := 0; i < 8; i++ {
		cw.Flip(i * 13)
	}
	res, n := code.DecodeInPlace(cw)
	fmt.Println(res, n, cw.Uint64At(0))
	// Output: corrected 8 12345
}

// CacheYield evaluates the Fig. 8(a) repair policies.
func ExampleCacheYield() {
	g := twodcache.YieldGeometry{Words: 16 << 20 * 8 / 64, WordBits: 72}
	y := twodcache.CacheYield(g, 2400, twodcache.YieldPolicy{ECC: true, SpareRows: 32})
	fmt.Printf("%.0f%%\n", y*100)
	// Output: 100%
}

// A ShardedCache stripes the address space across independent
// resilient engines; batches amortise locking per bank and per shard.
func ExampleNewShardedCache() {
	st, err := twodcache.NewShardedCache(twodcache.ShardedCacheConfig{
		Shards: 4, // 4 independent engines, line-interleaved
		Cache:  twodcache.ProtectedCacheConfig{Sets: 16, Ways: 2, LineBytes: 64},
	}, twodcache.NewMemoryBacking(64))
	if err != nil {
		panic(err)
	}
	writes := []twodcache.BatchWriteOp{
		{Addr: 0 * 64, Data: []byte("two")},
		{Addr: 1 * 64, Data: []byte("dee")},
	}
	if failed := st.WriteBatch(writes); failed != 0 {
		panic("write batch failed")
	}
	reads := []twodcache.BatchReadOp{
		{Addr: 0 * 64, Dst: make([]byte, 3)},
		{Addr: 1 * 64, Dst: make([]byte, 3)},
	}
	if failed := st.ReadBatch(reads); failed != 0 {
		panic("read batch failed")
	}
	fmt.Printf("%s%s from shards %d and %d of %d\n",
		reads[0].Dst, reads[1].Dst,
		st.ShardOf(reads[0].Addr), st.ShardOf(reads[1].Addr), st.NumShards())
	// Output: twodee from shards 0 and 1 of 4
}

// A ProtectedCache keeps real data and tags in 2D-coded arrays and
// recovers injected errors transparently.
func ExampleNewProtectedCache() {
	cache, err := twodcache.NewProtectedCache(
		twodcache.ProtectedCacheConfig{Sets: 16, Ways: 2, LineBytes: 64},
		twodcache.NewMemoryBacking(64))
	if err != nil {
		panic(err)
	}
	// Batches are the cache's only data path: a single access is a
	// batch of one.
	w := []twodcache.BatchWriteOp{{Addr: 0x100, Data: []byte("resilient")}}
	if cache.WriteBatch(w) != 0 {
		panic(w[0].Err)
	}
	// A soft error strikes the bank that holds 0x100's set (set 4 =
	// (0x100/64) % 16): BankOf finds it, BankArrays exposes its arrays.
	da, _ := cache.BankArrays(cache.BankOf(4))
	da.FlipBit(0, 5)
	r := []twodcache.BatchReadOp{{Addr: 0x100, Dst: make([]byte, 9)}}
	if cache.ReadBatch(r) != 0 {
		panic(r[0].Err)
	}
	fmt.Println(string(r[0].Dst))
	// Output: resilient
}
