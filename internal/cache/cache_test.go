package cache

import (
	"math/rand"
	"testing"
)

func cfg64k() Config {
	return Config{
		Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2,
		Banks: 1, PortsPerBank: 2, HitLatency: 2, MSHRs: 8,
	}
}

func TestConfigValidation(t *testing.T) {
	good := cfg64k()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(c *Config){
		func(c *Config) { c.SizeBytes = 0 },
		func(c *Config) { c.LineBytes = 60 },
		func(c *Config) { c.Assoc = 3 }, // 64k/(64*3) not integral
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.PortsPerBank = 0 },
		func(c *Config) { c.MSHRs = 0 },
	}
	for i, mutate := range bads {
		c := cfg64k()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(cfg64k())
	addr := uint64(0x12340)
	if c.Lookup(addr, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(addr, false)
	if !c.Lookup(addr, false) {
		t.Fatal("post-fill lookup missed")
	}
	// Same line, different offset.
	if !c.Lookup(addr+63-(addr%64), false) {
		t.Fatal("same-line offset missed")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way: fill three conflicting lines; the least recently used one
	// must be the victim.
	c := MustNew(cfg64k())
	setStride := uint64(64 << 9) // sets = 64k/(64*2) = 512; stride = 512*64
	a, b, d := uint64(0x40), 0x40+setStride, 0x40+2*setStride
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // touch a => b is LRU
	ev := c.Fill(d, false)
	if !ev.Valid {
		t.Fatal("no eviction on full set")
	}
	if c.LineAddr(ev.Addr) != c.LineAddr(b) {
		t.Fatalf("evicted %#x, want %#x", ev.Addr, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := MustNew(cfg64k())
	setStride := uint64(64 << 9)
	a := uint64(0x1000)
	c.Fill(a, false)
	c.Lookup(a, true) // store => dirty
	c.Fill(a+setStride, false)
	ev := c.Fill(a+2*setStride, false)
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("eviction = %+v, want dirty", ev)
	}
	if c.LineAddr(ev.Addr) != c.LineAddr(a) {
		t.Fatalf("evicted %#x, want %#x", ev.Addr, a)
	}
}

func TestFillDirtyAndClean(t *testing.T) {
	c := MustNew(cfg64k())
	a := uint64(0x2000)
	c.Fill(a, true) // write-allocate store
	setStride := uint64(64 << 9)
	c.Fill(a+setStride, false)
	c.CleanLine(a) // writeback completed
	ev := c.Fill(a+2*setStride, false)
	if ev.Dirty {
		t.Fatal("cleaned line still evicted dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(cfg64k())
	a := uint64(0x3000)
	c.Fill(a, true)
	present, dirty := c.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("invalidate = %v %v", present, dirty)
	}
	if c.Contains(a) {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(a)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestEvictionAddressRoundTrip(t *testing.T) {
	// The reconstructed eviction address must map to the same set and
	// tag as the original.
	c := MustNew(cfg64k())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1 << 30))
		c.Fill(addr, false)
	}
	// Force evictions and verify they re-fill into the same set.
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(1 << 30))
		ev := c.Fill(addr, false)
		if ev.Valid {
			if c.Contains(ev.Addr) {
				t.Fatal("evicted line reported still present")
			}
			c.Fill(ev.Addr, false)
			if !c.Contains(ev.Addr) {
				t.Fatal("refill of evicted address failed")
			}
		}
	}
}

func TestBankMapping(t *testing.T) {
	cfg := cfg64k()
	cfg.Banks = 8
	c := MustNew(cfg)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		b := c.Bank(uint64(i * 64))
		if b < 0 || b >= 8 {
			t.Fatalf("bank %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d banks used", len(seen))
	}
}

func TestPorts(t *testing.T) {
	p := NewPorts(2, 2)
	p.NewCycle()
	if !p.Take(0) || !p.Take(0) {
		t.Fatal("two slots should be available")
	}
	if p.Take(0) {
		t.Fatal("third slot granted")
	}
	if !p.Idle(1) || !p.Take(1) {
		t.Fatal("bank 1 should be free")
	}
	p.NewCycle()
	if !p.Take(0) {
		t.Fatal("slot not reset on new cycle")
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.Allocate(100, 1) || !m.Allocate(200, 2) {
		t.Fatal("allocation failed")
	}
	if !m.Full() {
		t.Fatal("file should be full")
	}
	// Merge into existing entry still works when full.
	if !m.Allocate(100, 3) {
		t.Fatal("merge rejected")
	}
	if m.Allocate(300, 4) {
		t.Fatal("over-allocation accepted")
	}
	if !m.Lookup(100) || m.Lookup(300) {
		t.Fatal("lookup wrong")
	}
	ws := m.Complete(100)
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 3 {
		t.Fatalf("waiters = %v", ws)
	}
	if len(m.pending) != 1 {
		t.Fatalf("outstanding = %d", len(m.pending))
	}
}
