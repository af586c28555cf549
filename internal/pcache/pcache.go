// Package pcache assembles the 2D-coded arrays into a complete,
// functional, set-associative cache: real data bytes live in
// twod-protected data sub-arrays, and the tag/state store lives in
// twod-protected tag sub-arrays — "cache tag sub-arrays are handled
// identically" (§4). The cache serves loads and stores against a
// backing memory, write-back write-allocate, while arbitrary bit
// errors injected into any of its arrays are detected by the
// horizontal codes and repaired by 2D recovery, transparently to the
// caller.
//
// The cache is physically banked, as real SRAM macros are: the sets
// are partitioned across independently locked bank pairs (one data
// sub-array plus one tag sub-array each), so traffic to different
// banks never contends. ReadBatch and WriteBatch are the only data
// calls — a single access is a batch of one — and each holds a bank's
// lock once per batch while it checks every word of every line it
// touches. All of ReadBatch, WriteBatch, Flush, fault injection
// (WithBankLock), scrubbing (ScrubBank) and degradation (Decommission)
// are safe to call from many goroutines concurrently.
package pcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"twodcache/internal/ecc"
	"twodcache/internal/obs"
	"twodcache/internal/twod"
)

// Config sizes the protected cache.
type Config struct {
	// Sets and Ways define the organisation; LineBytes the block size
	// (must be a multiple of 8, power of two).
	Sets, Ways, LineBytes int
	// VerticalGroups is V for every sub-array (default 32).
	VerticalGroups int
	// SECDEDHorizontal selects in-line single-bit correction (yield
	// configuration) instead of EDC8 detection-only horizontal codes.
	SECDEDHorizontal bool
	// Banks is the number of independently locked bank pairs the sets
	// are partitioned into (a power of two ≤ Sets). Zero selects
	// min(8, Sets). Each bank is its own 2D protection domain, like the
	// physical sub-arrays of §4.
	Banks int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("pcache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("pcache: ways %d", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes%8 != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("pcache: line bytes %d must be a power-of-two multiple of 8", c.LineBytes)
	}
	if c.VerticalGroups < 0 {
		return fmt.Errorf("pcache: negative vertical groups")
	}
	if c.Banks != 0 {
		if c.Banks < 0 || c.Banks&(c.Banks-1) != 0 || c.Banks > c.Sets {
			return fmt.Errorf("pcache: banks %d must be a power of two ≤ sets %d", c.Banks, c.Sets)
		}
	}
	return nil
}

// effectiveBanks resolves the bank count default.
func (c Config) effectiveBanks() int {
	if c.Banks != 0 {
		return c.Banks
	}
	if c.Sets < 8 {
		return c.Sets
	}
	return 8
}

// Backing is the next level of the hierarchy: line-granular load/store.
// Implementations must be safe for concurrent use (MapBacking is).
type Backing interface {
	// ReadLine returns LineBytes bytes at the line-aligned address.
	ReadLine(addr uint64) []byte
	// WriteLine stores LineBytes bytes at the line-aligned address. The
	// slice is a cache-owned scratch buffer reused across calls:
	// implementations must copy it, never retain it.
	WriteLine(addr uint64, data []byte)
}

// MapBacking is a simple in-memory Backing, safe for concurrent use.
type MapBacking struct {
	lineBytes int
	mu        sync.Mutex
	m         map[uint64][]byte
}

// NewMapBacking builds an empty backing store.
func NewMapBacking(lineBytes int) *MapBacking {
	return &MapBacking{lineBytes: lineBytes, m: map[uint64][]byte{}}
}

// ReadLine returns the stored line (zeroes if never written).
func (b *MapBacking) ReadLine(addr uint64) []byte {
	out := make([]byte, b.lineBytes)
	b.mu.Lock()
	defer b.mu.Unlock()
	if d, ok := b.m[addr]; ok {
		copy(out, d)
	}
	return out
}

// WriteLine stores a line, overwriting a stored one in place: ReadLine
// hands out copies, so nothing aliases it, and a writeback allocates
// only the first time it reaches an address.
func (b *MapBacking) WriteLine(addr uint64, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.m[addr]
	if !ok {
		d = make([]byte, b.lineBytes)
		b.m[addr] = d
	}
	copy(d, data)
}

// ErrUncorrectable reports an error footprint beyond the 2D coverage —
// the software-visible machine-check. The affected line's contents are
// untrustworthy. It is always returned wrapped in an
// *UncorrectableError carrying the fault location; match with
// errors.Is(err, ErrUncorrectable) or errors.As.
var ErrUncorrectable = errors.New("pcache: uncorrectable error (exceeds 2D coverage)")

// Array names for UncorrectableError.Array.
const (
	ArrayData = "data"
	ArrayTags = "tags"
)

// UncorrectableError is the typed machine-check: it locates the
// detected-but-uncorrectable error so a recovery engine can escalate
// (retry, word-level repair, full 2D recovery, refetch+decommission)
// against exactly the affected resource. It wraps ErrUncorrectable, so
// errors.Is(err, ErrUncorrectable) holds.
type UncorrectableError struct {
	// Array is which protected store tripped: ArrayData or ArrayTags.
	Array string
	// Set and Way locate the cache line whose access failed (for tag
	// errors, Way is the tag word that failed to read).
	Set, Way int
}

// Error implements error.
func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("pcache: uncorrectable %s error at set %d way %d (exceeds 2D coverage)",
		e.Array, e.Set, e.Way)
}

// Unwrap makes errors.Is(err, ErrUncorrectable) work.
func (e *UncorrectableError) Unwrap() error { return ErrUncorrectable }

// Stats counts cache-level events. A Stats value returned by
// Cache.Stats is coherent: Hits ≤ Accesses and Hits+Misses ≤ Accesses
// hold even while traffic races the snapshot.
type Stats struct {
	// Accesses counts read and write ops issued.
	Accesses uint64
	// Hits and Misses count accesses by outcome.
	Hits, Misses uint64
	// Writebacks counts dirty lines written to the backing store.
	Writebacks uint64
	// ErrorsRecovered counts reads/writes that needed 2D recovery or
	// in-line correction anywhere in the arrays.
	ErrorsRecovered uint64
	// Uncorrectable counts machine-check events (ErrUncorrectable).
	Uncorrectable uint64
	// Bypassed counts accesses served directly from the backing store
	// because every way of the target set is decommissioned.
	Bypassed uint64
	// DirtyLinesLost counts decommissioned lines whose unflushed dirty
	// data was discarded (the detected-but-unrecoverable outcome).
	DirtyLinesLost uint64
}

// WayRef names one cache way globally.
type WayRef struct {
	Set, Way int
}

// bank is one independently locked pair of protected sub-arrays plus
// the per-set replacement and decommission state it owns. mu guards
// everything but the two counters: every access to the arrays, the
// LRU stamps, the disabled map and lineBuf happens under it.
type bank struct {
	index int
	mu    sync.Mutex
	data  *twod.Array // rows = setsPerBank*Ways, wordsPerRow = lineBytes/8
	tags  *twod.Array // rows = setsPerBank, wordsPerRow = Ways

	lru   []uint64 // [localSet*Ways+way] last-touch stamps
	stamp uint64   // the bank's LRU clock

	// hits and accesses are atomics because Stats()/Accesses() sum them
	// without taking any bank lock; they live per bank so traffic to
	// different banks does not serialise on one shared cache line.
	_        [48]byte // keep the counters off mu's cache line
	hits     atomic.Uint64
	accesses atomic.Uint64

	// disabled marks decommissioned ways.
	disabled []bool

	// lineBuf is the bank's line-sized staging buffer (line read-outs,
	// read-modify-writes, fills, writebacks, flushes); lineWords and
	// lineSt carry a line's words and their statuses through the data
	// array's row calls. Reusing them keeps the hit path
	// allocation-free.
	lineBuf   []byte
	lineWords []uint64
	lineSt    []twod.ReadStatus
}

// Cache is the protected cache: a banked array of 2D-coded data and
// tag sub-arrays, safe for concurrent use.
type Cache struct {
	cfg         Config
	backing     Backing
	banks       []*bank
	setsPerBank int

	lineShift uint
	setMask   uint64
	words     int // data words per line

	disabledWays atomic.Int64
	lossEpochs   []atomic.Uint64 // per set: bumped whenever the set's content may revert to backing

	misses, writebacks       atomic.Uint64
	recovered, uncorrectable atomic.Uint64
	bypassed, dirtyLost      atomic.Uint64
}

// tag word layout (64 bits): [0] valid, [1] dirty, [2..63] tag bits.
const (
	tagValidBit = uint64(1) << 0
	tagDirtyBit = uint64(1) << 1
	tagShift    = 2
)

// New builds an empty protected cache over the backing store.
func New(cfg Config, backing Backing) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("pcache: nil backing store")
	}
	v := cfg.VerticalGroups
	if v == 0 {
		v = 32
	}
	mkArray := func(rows, wordsPerRow int) (*twod.Array, error) {
		var h ecc.HorizontalCode
		var err error
		if cfg.SECDEDHorizontal {
			h, err = ecc.NewSECDED(64)
		} else {
			h, err = ecc.NewEDC(64, 8)
		}
		if err != nil {
			return nil, err
		}
		groups := v
		if groups > rows {
			groups = rows
		}
		return twod.NewArray(twod.Config{
			Rows:           rows,
			WordsPerRow:    wordsPerRow,
			Horizontal:     h,
			VerticalGroups: groups,
		})
	}
	nBanks := cfg.effectiveBanks()
	spb := cfg.Sets / nBanks
	c := &Cache{
		cfg:         cfg,
		backing:     backing,
		banks:       make([]*bank, nBanks),
		setsPerBank: spb,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:     uint64(cfg.Sets - 1),
		words:       cfg.LineBytes / 8,
		lossEpochs:  make([]atomic.Uint64, cfg.Sets),
	}
	for i := range c.banks {
		data, err := mkArray(spb*cfg.Ways, cfg.LineBytes/8)
		if err != nil {
			return nil, err
		}
		tags, err := mkArray(spb, cfg.Ways)
		if err != nil {
			return nil, err
		}
		c.banks[i] = &bank{
			index:     i,
			data:      data,
			tags:      tags,
			lru:       make([]uint64, spb*cfg.Ways),
			disabled:  make([]bool, spb*cfg.Ways),
			lineBuf:   make([]byte, cfg.LineBytes),
			lineWords: make([]uint64, c.words),
			lineSt:    make([]twod.ReadStatus, c.words),
		}
	}
	return c, nil
}

// MustNew panics on error.
func MustNew(cfg Config, backing Backing) *Cache {
	c, err := New(cfg, backing)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a coherent snapshot of the counters. Outcome counters
// are loaded before the per-bank access counters: every hit/miss
// increment happens strictly after its access increment, so loading the
// dependents first guarantees Hits+Misses ≤ Accesses under concurrent
// traffic. The clamps below are backstops, not the mechanism.
func (c *Cache) Stats() Stats {
	var hits, accesses uint64
	for _, b := range c.banks {
		hits += b.hits.Load()
	}
	misses := c.misses.Load()
	st := Stats{
		Writebacks:      c.writebacks.Load(),
		ErrorsRecovered: c.recovered.Load(),
		Uncorrectable:   c.uncorrectable.Load(),
		Bypassed:        c.bypassed.Load(),
		DirtyLinesLost:  c.dirtyLost.Load(),
	}
	for _, b := range c.banks {
		accesses += b.accesses.Load()
	}
	if hits > accesses {
		hits = accesses
	}
	if hits+misses > accesses {
		misses = accesses - hits
	}
	st.Accesses, st.Hits, st.Misses = accesses, hits, misses
	return st
}

// Metric names registered by RegisterMetrics.
const (
	MetricHits         = "pcache_hits_total"
	MetricMisses       = "pcache_misses_total"
	MetricAccesses     = "pcache_accesses_total"
	MetricWritebacks   = "pcache_writebacks_total"
	MetricRecovered    = "pcache_errors_recovered_total"
	MetricUncorrect    = "pcache_uncorrectable_total"
	MetricBypassed     = "pcache_bypassed_total"
	MetricDirtyLost    = "pcache_dirty_lines_lost_total"
	MetricDisabledWays = "pcache_disabled_ways"
)

// RegisterMetrics wires the cache's counters into a registry. Dependent
// counters register — and are therefore snapshotted — before their
// upper bounds (hits before accesses, per bank and in aggregate), and
// ClampLE invariants back them up, so a registry snapshot can never
// show hits exceeding accesses. Aggregated sub-array activity (reads,
// recoveries, uncorrectable words across every bank's data and tag
// arrays) is exported under pcache_array_*.
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc(MetricHits, "accesses served by a resident line", func() uint64 {
		var n uint64
		for _, b := range c.banks {
			n += b.hits.Load()
		}
		return n
	})
	r.CounterFunc(MetricMisses, "accesses that required a line fill", c.misses.Load)
	r.CounterFunc(MetricAccesses, "Read/Write operations issued", c.Accesses)
	r.ClampLE(MetricHits, MetricAccesses)
	r.ClampLE(MetricMisses, MetricAccesses)
	r.CounterFunc(MetricWritebacks, "dirty lines written back to the backing store", c.writebacks.Load)
	r.CounterFunc(MetricRecovered, "accesses that needed 2D recovery or in-line correction", c.recovered.Load)
	r.CounterFunc(MetricUncorrect, "machine-check events (footprint beyond 2D coverage)", c.uncorrectable.Load)
	r.CounterFunc(MetricBypassed, "accesses served from backing because the set is decommissioned", c.bypassed.Load)
	r.CounterFunc(MetricDirtyLost, "decommissioned lines whose unflushed dirty data was discarded", c.dirtyLost.Load)
	r.GaugeFunc(MetricDisabledWays, "ways currently decommissioned", c.disabledWays.Load)
	for i, b := range c.banks {
		b := b
		hitsName := fmt.Sprintf("pcache_bank%d_hits_total", i)
		accName := fmt.Sprintf("pcache_bank%d_accesses_total", i)
		r.CounterFunc(hitsName, fmt.Sprintf("hits served by bank %d", i), b.hits.Load)
		r.CounterFunc(accName, fmt.Sprintf("accesses routed to bank %d", i), b.accesses.Load)
		r.ClampLE(hitsName, accName)
	}
	sumArrays := func(sel func(twod.Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, b := range c.banks {
				n += sel(b.data.Stats()) + sel(b.tags.Stats())
			}
			return n
		}
	}
	r.CounterFunc("pcache_array_reads_total", "word reads across every protected sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.Reads }))
	r.CounterFunc("pcache_array_writes_total", "word writes across every protected sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.Writes }))
	r.CounterFunc("pcache_array_inline_corrections_total", "SECDED in-line corrections across every sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.InlineCorrections }))
	r.CounterFunc("pcache_array_recoveries_total", "2D recovery invocations across every sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.Recoveries }))
	r.CounterFunc("pcache_array_recovered_words_total", "words repaired by 2D recovery across every sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.RecoveredWords }))
	r.CounterFunc("pcache_array_uncorrectable_total", "uncorrectable word reads across every sub-array",
		sumArrays(func(s twod.Stats) uint64 { return s.Uncorrectable }))
}

// Accesses returns the number of read and write ops issued so far —
// the traffic signal a traffic-aware scrubber keys off.
func (c *Cache) Accesses() uint64 {
	var n uint64
	for _, b := range c.banks {
		n += b.accesses.Load()
	}
	return n
}

// NumBanks returns the number of independently locked banks.
func (c *Cache) NumBanks() int { return len(c.banks) }

// BankOf returns the bank index serving the given global set — the
// granularity at which repairs serialise (one bank lock, one in-flight
// recovery) and at which the resilience layer keys its circuit
// breakers and single-flight coalescing.
func (c *Cache) BankOf(set int) int { return set / c.setsPerBank }

// BankArrays returns bank i's data and tag arrays without any locking,
// for single-threaded inspection and fault injection.
func (c *Cache) BankArrays(i int) (data, tags *twod.Array) {
	return c.banks[i].data, c.banks[i].tags
}

// WithBankLock runs fn with exclusive access to bank i's arrays, so
// fault injection and inspection can race safely against concurrent
// traffic — upsets strike mid-stream, but never mid-word.
func (c *Cache) WithBankLock(i int, fn func(data, tags *twod.Array)) {
	b := c.banks[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.data, b.tags)
}

// LossEpoch returns the set's loss epoch: it advances every time the
// set's content may have reverted to the backing store (repair after a
// machine check, decommission). External correctness checkers compare
// epochs around an access to tell accounted data loss from silent
// corruption.
func (c *Cache) LossEpoch(set int) uint64 { return c.lossEpochs[set].Load() }

// DisabledWays returns how many ways are currently decommissioned.
func (c *Cache) DisabledWays() int { return int(c.disabledWays.Load()) }

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }
func (c *Cache) setOf(line uint64) int       { return int(line & c.setMask) }
func (c *Cache) tagOf(line uint64) uint64    { return line >> bits.TrailingZeros64(c.setMask+1) }

// bankOf maps a global set to (bank, localSet).
func (c *Cache) bankOf(set int) (*bank, int) {
	return c.banks[set/c.setsPerBank], set % c.setsPerBank
}

func (b *bank) globalSet(spb, ls int) int { return b.index*spb + ls }

// noteSt records an access outcome, wrapping uncorrectable ones with
// their location.
func (c *Cache) noteSt(st twod.ReadStatus, array string, set, way int) error {
	if st == twod.ReadRecovered || st == twod.ReadCorrectedInline {
		c.recovered.Add(1)
	}
	if st == twod.ReadUncorrectable {
		c.uncorrectable.Add(1)
		return &UncorrectableError{Array: array, Set: set, Way: way}
	}
	return nil
}

// --- locked per-bank primitives (b.mu held) ------------------------------

func (c *Cache) readTagLocked(b *bank, ls, way int) (uint64, error) {
	v, st := b.tags.ReadUint64(ls, way)
	if err := c.noteSt(st, ArrayTags, b.globalSet(c.setsPerBank, ls), way); err != nil {
		return 0, err
	}
	return v, nil
}

func (c *Cache) writeTagLocked(b *bank, ls, way int, v uint64) error {
	st := b.tags.WriteUint64(ls, way, v)
	return c.noteSt(st, ArrayTags, b.globalSet(c.setsPerBank, ls), way)
}

// lookupLocked returns the hitting way, or -1.
func (c *Cache) lookupLocked(b *bank, ls int, tag uint64) (int, error) {
	for way := 0; way < c.cfg.Ways; way++ {
		if b.disabled[ls*c.cfg.Ways+way] {
			continue
		}
		t, err := c.readTagLocked(b, ls, way)
		if err != nil {
			return -1, err
		}
		if t&tagValidBit != 0 && t>>tagShift == tag {
			return way, nil
		}
	}
	return -1, nil
}

// victimLocked picks an invalid or LRU way among the enabled ways; ok
// is false when the whole set is decommissioned.
func (c *Cache) victimLocked(b *bank, ls int) (way int, ok bool, err error) {
	best, bestStamp, found := 0, ^uint64(0), false
	for w := 0; w < c.cfg.Ways; w++ {
		idx := ls*c.cfg.Ways + w
		if b.disabled[idx] {
			continue
		}
		t, err := c.readTagLocked(b, ls, w)
		if err != nil {
			return 0, true, err
		}
		if t&tagValidBit == 0 {
			return w, true, nil
		}
		if s := b.lru[idx]; !found || s < bestStamp {
			best, bestStamp, found = w, s, true
		}
	}
	if !found {
		return 0, false, nil
	}
	return best, true, nil
}

// dataRow maps (localSet, way) to the bank's data array row.
func (c *Cache) dataRow(ls, way int) int { return ls*c.cfg.Ways + way }

// readLineLocked fetches a full line from the bank's data array into
// dst (length LineBytes; typically the bank's lineBuf scratch) with one
// row read, then notes each word's status in word order.
func (c *Cache) readLineLocked(b *bank, ls, way int, dst []byte) error {
	set := b.globalSet(c.setsPerBank, ls)
	n := b.data.ReadRowUint64(c.dataRow(ls, way), b.lineWords, b.lineSt)
	for w, st := range b.lineSt[:n] {
		if err := c.noteSt(st, ArrayData, set, way); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(dst[w*8:], b.lineWords[w])
	}
	return nil
}

// writeLineLocked stores a full line into the bank's data array with
// one row write, then notes each word's status in word order.
func (c *Cache) writeLineLocked(b *bank, ls, way int, data []byte) error {
	set := b.globalSet(c.setsPerBank, ls)
	for w := range b.lineWords {
		b.lineWords[w] = binary.LittleEndian.Uint64(data[w*8:])
	}
	n := b.data.WriteRowUint64(c.dataRow(ls, way), b.lineWords, b.lineSt)
	for _, st := range b.lineSt[:n] {
		if err := c.noteSt(st, ArrayData, set, way); err != nil {
			return err
		}
	}
	return nil
}

// fillLocked brings the line into the set, evicting as needed; ok is
// false when every way is decommissioned (caller must bypass).
func (c *Cache) fillLocked(b *bank, ls int, line uint64) (way int, ok bool, err error) {
	way, ok, err = c.victimLocked(b, ls)
	if err != nil || !ok {
		return 0, ok, err
	}
	old, err := c.readTagLocked(b, ls, way)
	if err != nil {
		return 0, true, err
	}
	if old&tagValidBit != 0 && old&tagDirtyBit != 0 {
		set := b.globalSet(c.setsPerBank, ls)
		oldLine := old>>tagShift<<bits.TrailingZeros64(c.setMask+1) | uint64(set)
		if err := c.readLineLocked(b, ls, way, b.lineBuf); err != nil {
			return 0, true, err
		}
		c.backing.WriteLine(oldLine<<c.lineShift, b.lineBuf)
		c.writebacks.Add(1)
	}
	if old&tagValidBit != 0 {
		// Invalidate the victim's tag BEFORE overwriting its line.
		// writeLineLocked can abort part-way (overwriting a word with
		// unrepairable latent damage stores the new value but reports
		// uncorrectable), leaving a torn mix of old and new words that
		// each check clean. Behind the stale valid(+dirty) tag, a later
		// eviction would write that torn line back to the OLD address
		// with no loss-epoch bump — silent corruption of the backing
		// store. Invalidated first, an aborted fill leaves only an
		// empty way; the old line's next reader refetches from backing,
		// which the writeback above has made current. Even if this tag
		// write itself reports uncorrectable, the zero value has been
		// stored raw, so the way still reads as invalid.
		if err := c.writeTagLocked(b, ls, way, 0); err != nil {
			return 0, true, err
		}
	}
	if err := c.writeLineLocked(b, ls, way, c.backing.ReadLine(line<<c.lineShift)); err != nil {
		return 0, true, err
	}
	if err := c.writeTagLocked(b, ls, way, tagValidBit|c.tagOf(line)<<tagShift); err != nil {
		return 0, true, err
	}
	return way, true, nil
}

// touch stamps the way as most recently used.
func (b *bank) touch(ls, way, ways int) {
	b.stamp++
	b.lru[ls*ways+way] = b.stamp
}

// --- public access API --------------------------------------------------

// Flush writes every dirty line back to the backing store. Safe for
// concurrent use (each bank is flushed under its lock).
func (c *Cache) Flush() error {
	for _, b := range c.banks {
		if err := c.flushBank(b); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cache) flushBank(b *bank) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ls := 0; ls < c.setsPerBank; ls++ {
		set := b.globalSet(c.setsPerBank, ls)
		for way := 0; way < c.cfg.Ways; way++ {
			if b.disabled[ls*c.cfg.Ways+way] {
				continue
			}
			t, err := c.readTagLocked(b, ls, way)
			if err != nil {
				return err
			}
			if t&tagValidBit != 0 && t&tagDirtyBit != 0 {
				line := t>>tagShift<<bits.TrailingZeros64(c.setMask+1) | uint64(set)
				if err := c.readLineLocked(b, ls, way, b.lineBuf); err != nil {
					return err
				}
				c.backing.WriteLine(line<<c.lineShift, b.lineBuf)
				if err := c.writeTagLocked(b, ls, way, t&^tagDirtyBit); err != nil {
					return err
				}
				c.writebacks.Add(1)
			}
		}
	}
	return nil
}

// --- repair, degradation, scrubbing -------------------------------------

// Repair recovers from an uncorrectable error the way an OS handles a
// cache machine check: every line in the address's set is invalidated
// and its storage force-cleared (unflushed dirty contents of that set
// are lost — the detected-but-uncorrectable outcome). The set's loss
// epoch advances.
func (c *Cache) Repair(addr uint64) {
	line := c.lineAddr(addr)
	set := c.setOf(line)
	b, ls := c.bankOf(set)
	b.mu.Lock()
	defer b.mu.Unlock()
	// Bump-before-expose: the epoch must advance before any cached
	// content is destroyed, so no observer can ever see reverted data
	// alongside a stale epoch.
	c.lossEpochs[set].Add(1)
	c.wipeSetLocked(b, ls)
}

// wipeSetLocked force-clears every way of the local set, then flushes
// any parity residues the raw-delta force-writes left behind in groups
// that now check clean (groups still holding detected damage keep
// their mismatch information — see twod.FlushResidualParity).
func (c *Cache) wipeSetLocked(b *bank, ls int) {
	for way := 0; way < c.cfg.Ways; way++ {
		row := c.dataRow(ls, way)
		for w := 0; w < c.words; w++ {
			b.data.ForceWriteUint64(row, w, 0)
		}
		b.tags.ForceWriteUint64(ls, way, 0)
	}
	b.data.FlushResidualParity()
	b.tags.FlushResidualParity()
}

// RepairAll is the whole-cache machine-check handler: every set is
// force-cleared (all unflushed dirty data is lost) and all arrays
// return to a consistent state. Used when a scrub pass itself reports
// uncorrectable damage.
func (c *Cache) RepairAll() {
	for set := 0; set < c.cfg.Sets; set++ {
		c.Repair(uint64(set) << c.lineShift)
	}
}

// Decommission retires one way: its line is discarded (refetched from
// backing on the next access to that address), its storage is
// force-cleared so the arrays stay consistent, and the way is removed
// from allocation — the line-delete map real processors keep. It
// reports whether unflushed dirty data was lost. The set's loss epoch
// advances.
func (c *Cache) Decommission(set, way int) (lostDirty bool) {
	b, ls := c.bankOf(set)
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := ls*c.cfg.Ways + way
	if t, ok := b.tags.TryReadUint64(ls, way); ok {
		lostDirty = t&tagValidBit != 0 && t&tagDirtyBit != 0
	} else {
		// Tag word unreadable: assume the worst.
		lostDirty = true
	}
	// Bump-before-expose: advance the epoch before the way's content is
	// destroyed (see Repair).
	c.lossEpochs[set].Add(1)
	row := c.dataRow(ls, way)
	for w := 0; w < c.words; w++ {
		b.data.ForceWriteUint64(row, w, 0)
	}
	b.tags.ForceWriteUint64(ls, way, 0)
	b.data.FlushResidualParity()
	b.tags.FlushResidualParity()
	if !b.disabled[idx] {
		b.disabled[idx] = true
		c.disabledWays.Add(1)
	}
	if lostDirty {
		c.dirtyLost.Add(1)
	}
	return lostDirty
}

// Reenable returns a decommissioned way to service (after its faulty
// row has been remapped to a spare). The way comes back empty.
func (c *Cache) Reenable(set, way int) {
	b, ls := c.bankOf(set)
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := ls*c.cfg.Ways + way
	if b.disabled[idx] {
		b.disabled[idx] = false
		c.disabledWays.Add(-1)
	}
}

// RecoverWord is the targeted middle rung of the escalation ladder: it
// attempts word-level horizontal correction of exactly the failed
// resource — the tag word, or every word of the failed line — without
// an array-wide recovery march. It reports whether everything it
// touched now checks clean.
func (c *Cache) RecoverWord(array string, set, way int) bool {
	b, ls := c.bankOf(set)
	b.mu.Lock()
	defer b.mu.Unlock()
	if array == ArrayTags {
		return b.tags.CorrectWord(ls, way)
	}
	row := c.dataRow(ls, way)
	ok := true
	for w := 0; w < c.words; w++ {
		if !b.data.CorrectWord(row, w) {
			ok = false
		}
	}
	return ok
}

// RecoverSetArrays runs the full 2D recovery process over both arrays
// of the set's bank, reporting whether the bank checks clean after.
func (c *Cache) RecoverSetArrays(set int) bool {
	b, _ := c.bankOf(set)
	b.mu.Lock()
	defer b.mu.Unlock()
	okData := b.data.Recover().Success
	okTags := b.tags.Recover().Success
	return okData && okTags
}

// ScrubBank runs 2D recovery over bank i's arrays. When recovery
// cannot restore consistency it returns ok=false plus the cache ways
// whose words still check dirty — the lines a resilience engine must
// decommission.
func (c *Cache) ScrubBank(i int) (ok bool, victims []WayRef) {
	b := c.banks[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	okData := b.data.Recover().Success
	okTags := b.tags.Recover().Success
	if okData && okTags {
		return true, nil
	}
	seen := map[WayRef]bool{}
	add := func(ref WayRef) {
		if !seen[ref] {
			seen[ref] = true
			victims = append(victims, ref)
		}
	}
	if !okData {
		for _, rw := range b.data.FaultyWordList() {
			add(WayRef{Set: b.globalSet(c.setsPerBank, rw[0]/c.cfg.Ways), Way: rw[0] % c.cfg.Ways})
		}
	}
	if !okTags {
		for _, rw := range b.tags.FaultyWordList() {
			add(WayRef{Set: b.globalSet(c.setsPerBank, rw[0]), Way: rw[1]})
		}
	}
	return false, victims
}

// Scrub proactively runs 2D recovery over every bank (a full scrubbing
// pass), returning whether everything is consistent.
func (c *Cache) Scrub() bool {
	all := true
	for i := range c.banks {
		if ok, _ := c.ScrubBank(i); !ok {
			all = false
		}
	}
	return all
}

func (c *Cache) checkSpan(addr uint64, n int) error {
	if n <= 0 || n > c.cfg.LineBytes {
		return fmt.Errorf("pcache: access size %d out of (0,%d]", n, c.cfg.LineBytes)
	}
	off := int(addr) & (c.cfg.LineBytes - 1)
	if off+n > c.cfg.LineBytes {
		return fmt.Errorf("pcache: access at %#x size %d crosses a line boundary", addr, n)
	}
	return nil
}
