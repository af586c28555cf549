// Package cache implements the set-associative cache structures of the
// simulated CMPs: tag/state arrays with true LRU replacement, banking,
// per-cycle port accounting, and MSHRs. The cycle-level simulator in
// internal/sim composes these into the two-level hierarchies of the
// paper's fat and lean baselines.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// Name labels the cache in statistics.
	Name string
	// SizeBytes is the data capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// Banks is the number of independently-ported banks (line-address
	// interleaved).
	Banks int
	// PortsPerBank is how many operations one bank accepts per cycle.
	PortsPerBank int
	// HitLatency is the access latency in cycles.
	HitLatency int
	// MSHRs bounds outstanding misses.
	MSHRs int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: invalid geometry %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %dB lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("cache: bank count %d not a positive power of two", c.Banks)
	}
	if c.PortsPerBank <= 0 || c.HitLatency <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cache: ports/latency/mshrs must be positive: %+v", c)
	}
	return nil
}

// line is one tag-array entry.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Cache is the tag/state array. Port and MSHR accounting live in the
// companion types Ports and MSHRFile so that the simulator can compose
// them per its own clocking.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint // log2(LineBytes)
	setMask  uint64
	bankMask uint64
	stamp    uint64
}

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(nsets - 1),
		bankMask: uint64(cfg.Banks - 1),
	}, nil
}

// MustNew panics on configuration error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// LineAddr truncates a byte address to its line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.setShift }

// Bank returns the bank a line address maps to.
func (c *Cache) Bank(addr uint64) int {
	return int(c.LineAddr(addr) & c.bankMask)
}

func (c *Cache) set(lineAddr uint64) int { return int(lineAddr & c.setMask) }
func (c *Cache) tag(lineAddr uint64) uint64 {
	return lineAddr >> bits.TrailingZeros64(c.setMask+1)
}

// Lookup probes the tags. On a hit it updates LRU and, if write, marks
// the line dirty.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	la := c.LineAddr(addr)
	set := c.sets[c.set(la)]
	tag := c.tag(la)
	c.stamp++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	return false
}

// Contains probes without updating LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	set := c.sets[c.set(la)]
	tag := c.tag(la)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Eviction describes a line displaced by Fill.
type Eviction struct {
	// Valid reports whether a line was displaced at all.
	Valid bool
	// Addr is the displaced line's address (line-granular, shifted back
	// to bytes).
	Addr uint64
	// Dirty reports whether the displaced line needs writing back.
	Dirty bool
}

// Fill installs the line containing addr, evicting the LRU way if the
// set is full. If dirty, the new line is installed dirty (write-allocate
// stores). Filling a line already present just updates its state.
func (c *Cache) Fill(addr uint64, dirty bool) Eviction {
	la := c.LineAddr(addr)
	si := c.set(la)
	set := c.sets[si]
	tag := c.tag(la)
	c.stamp++
	// Already present?
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if dirty {
				set[i].dirty = true
			}
			return Eviction{}
		}
	}
	// Free way?
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	ev := Eviction{}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		evLine := set[victim]
		ev = Eviction{
			Valid: true,
			Addr:  c.reconstruct(evLine.tag, si),
			Dirty: evLine.dirty,
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: dirty, lru: c.stamp}
	return ev
}

// Invalidate drops the line containing addr, returning whether it was
// present and dirty (the caller decides what to do with dirty data —
// e.g. an L1-to-L1 transfer).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.LineAddr(addr)
	set := c.sets[c.set(la)]
	tag := c.tag(la)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = line{}
			return true, d
		}
	}
	return false, false
}

// CleanLine clears the dirty bit of the line containing addr (after a
// writeback), if present.
func (c *Cache) CleanLine(addr uint64) {
	la := c.LineAddr(addr)
	set := c.sets[c.set(la)]
	tag := c.tag(la)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = false
			return
		}
	}
}

func (c *Cache) reconstruct(tag uint64, setIdx int) uint64 {
	setBits := bits.TrailingZeros64(c.setMask + 1)
	return ((tag << uint(setBits)) | uint64(setIdx)) << c.setShift
}
