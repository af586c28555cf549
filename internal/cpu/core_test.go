package cpu

import (
	"math/rand"
	"testing"

	"twodcache/internal/workload"
)

// fakeMem is a configurable MemPort: loads complete after latency
// cycles; ports bound accepts per cycle.
type fakeMem struct {
	now        uint64
	latency    uint64
	slots      int
	used       int
	nextToken  uint64
	done       map[uint64]uint64
	storeOK    bool
	storeCount int
	loadCount  int
}

func newFakeMem(latency uint64, slots int) *fakeMem {
	return &fakeMem{latency: latency, slots: slots, done: map[uint64]uint64{}, storeOK: true}
}

func (m *fakeMem) newCycle() { m.now++; m.used = 0 }

func (m *fakeMem) TryLoad(addr uint64) (uint64, bool) {
	if m.used >= m.slots {
		return 0, false
	}
	m.used++
	m.loadCount++
	m.nextToken++
	m.done[m.nextToken] = m.now + m.latency
	return m.nextToken, true
}

func (m *fakeMem) LoadDone(token uint64) bool {
	t, ok := m.done[token]
	return ok && m.now >= t
}

func (m *fakeMem) TryStore(addr uint64) bool {
	if !m.storeOK || m.used >= m.slots {
		return false
	}
	m.used++
	m.storeCount++
	return true
}

func traceFor(t *testing.T, name string, core, thread int) *workload.Stream {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MustStream(p, core, thread, 99)
}

func TestFatCoreParams(t *testing.T) {
	if _, err := NewFatCore(0, 64, 64, traceFor(t, "OLTP", 0, 0)); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := NewFatCore(4, 64, 64, nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestFatCoreIPCBounds(t *testing.T) {
	core, err := NewFatCore(4, 64, 64, traceFor(t, "OLTP", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	mem := newFakeMem(2, 4)
	const cycles = 20000
	for i := 0; i < cycles; i++ {
		mem.newCycle()
		core.Tick(mem)
	}
	ipc := float64(core.Committed()) / cycles
	if ipc <= 0.5 || ipc > 4.0 {
		t.Fatalf("fat IPC = %v, want (0.5, 4]", ipc)
	}
	if mem.storeCount == 0 || mem.loadCount == 0 {
		t.Fatal("no memory traffic reached the port")
	}
}

func TestFatCoreDegradesWithLatency(t *testing.T) {
	run := func(lat uint64) float64 {
		core, _ := NewFatCore(4, 64, 64, traceFor(t, "OLTP", 0, 0))
		mem := newFakeMem(lat, 4)
		const cycles = 20000
		for i := 0; i < cycles; i++ {
			mem.newCycle()
			core.Tick(mem)
		}
		return float64(core.Committed()) / cycles
	}
	fast, slow := run(2), run(100)
	if slow >= fast {
		t.Fatalf("IPC did not degrade with latency: %v vs %v", fast, slow)
	}
	// The window must hide some of the latency: slow IPC should still
	// beat a fully-blocking design's bound (~1/(memfrac*lat)).
	if slow < 0.05 {
		t.Fatalf("no memory-level parallelism: slow IPC = %v", slow)
	}
}

func TestFatCoreDegradesWithPortContention(t *testing.T) {
	run := func(slots int) float64 {
		core, _ := NewFatCore(4, 64, 64, traceFor(t, "OLTP", 0, 0))
		mem := newFakeMem(2, slots)
		const cycles = 20000
		for i := 0; i < cycles; i++ {
			mem.newCycle()
			core.Tick(mem)
		}
		return float64(core.Committed()) / cycles
	}
	wide, narrow := run(4), run(1)
	if narrow >= wide {
		t.Fatalf("IPC did not degrade with port contention: %v vs %v", wide, narrow)
	}
}

func TestFatCoreStoreBackpressure(t *testing.T) {
	// If stores can never drain, the SQ fills and dispatch stalls.
	core, _ := NewFatCore(4, 64, 8, traceFor(t, "OLTP", 0, 0))
	mem := newFakeMem(2, 4)
	mem.storeOK = false
	for i := 0; i < 2000; i++ {
		mem.newCycle()
		core.Tick(mem)
	}
	if core.SQFullStalls() == 0 {
		t.Fatal("no SQ-full stalls with blocked stores")
	}
	ipcBlocked := float64(core.Committed()) / 2000
	if ipcBlocked > 1.0 {
		t.Fatalf("IPC %v too high with blocked stores", ipcBlocked)
	}
}

func TestLeanCoreParams(t *testing.T) {
	if _, err := NewLeanCore(2, 64, nil); err == nil {
		t.Fatal("no threads accepted")
	}
	if _, err := NewLeanCore(2, 64, []*workload.Stream{nil}); err == nil {
		t.Fatal("nil thread accepted")
	}
}

func TestLeanCoreMultithreadingHidesLatency(t *testing.T) {
	p, _ := workload.ByName("OLTP")
	run := func(nthreads int) float64 {
		var traces []*workload.Stream
		for th := 0; th < nthreads; th++ {
			traces = append(traces, workload.MustStream(p, 0, th, 7))
		}
		core, err := NewLeanCore(2, 64, traces)
		if err != nil {
			t.Fatal(err)
		}
		mem := newFakeMem(20, 2)
		const cycles = 20000
		for i := 0; i < cycles; i++ {
			mem.newCycle()
			core.Tick(mem)
		}
		return float64(core.Committed()) / cycles
	}
	one, four := run(1), run(4)
	if four <= one*1.5 {
		t.Fatalf("4 threads (%v IPC) should beat 1 thread (%v IPC) clearly", four, one)
	}
	if four > 2.0 {
		t.Fatalf("lean IPC %v exceeds width", four)
	}
}

func TestLeanCoreBlocksOnLoads(t *testing.T) {
	p, _ := workload.ByName("Sparse")
	core, _ := NewLeanCore(2, 64, []*workload.Stream{workload.MustStream(p, 0, 0, 3)})
	mem := newFakeMem(50, 2)
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		mem.newCycle()
		core.Tick(mem)
	}
	ipc := float64(core.Committed()) / cycles
	// Single thread blocking on 50-cycle loads at ~40% mem ops can't
	// sustain high IPC.
	if ipc > 0.5 {
		t.Fatalf("single-thread blocking IPC = %v, too high", ipc)
	}
}

// chaosMem randomly accepts/rejects operations and completes loads at
// random latencies — an adversarial memory to shake out core-state
// corruption.
type chaosMem struct {
	rng       *rand.Rand
	now       uint64
	nextToken uint64
	done      map[uint64]uint64
}

func (m *chaosMem) newCycle() { m.now++ }

func (m *chaosMem) TryLoad(addr uint64) (uint64, bool) {
	if m.rng.Intn(3) == 0 {
		return 0, false
	}
	m.nextToken++
	m.done[m.nextToken] = m.now + uint64(m.rng.Intn(300))
	return m.nextToken, true
}

func (m *chaosMem) LoadDone(token uint64) bool {
	t, ok := m.done[token]
	if ok && m.now >= t {
		delete(m.done, token)
		return true
	}
	return false
}

func (m *chaosMem) TryStore(addr uint64) bool { return m.rng.Intn(4) != 0 }

func TestFatCoreSurvivesChaos(t *testing.T) {
	core, err := NewFatCore(4, 64, 16, traceFor(t, "Sparse", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	mem := &chaosMem{rng: rand.New(rand.NewSource(1)), done: map[uint64]uint64{}}
	var prev uint64
	for i := 0; i < 50000; i++ {
		mem.newCycle()
		core.Tick(mem)
		if core.Committed() < prev {
			t.Fatal("committed count went backwards")
		}
		prev = core.Committed()
		// The ROB must respect the window bound.
		if len(core.rob) > 64 {
			t.Fatalf("ROB grew to %d > window", len(core.rob))
		}
		if len(core.sq) > 16 {
			t.Fatalf("SQ grew to %d > capacity", len(core.sq))
		}
	}
	if core.Committed() == 0 {
		t.Fatal("no forward progress under chaos")
	}
}

func TestLeanCoreSurvivesChaos(t *testing.T) {
	p, _ := workload.ByName("Web")
	var traces []*workload.Stream
	for th := 0; th < 4; th++ {
		traces = append(traces, workload.MustStream(p, 0, th, 5))
	}
	core, err := NewLeanCore(2, 8, traces)
	if err != nil {
		t.Fatal(err)
	}
	mem := &chaosMem{rng: rand.New(rand.NewSource(2)), done: map[uint64]uint64{}}
	for i := 0; i < 50000; i++ {
		mem.newCycle()
		core.Tick(mem)
		if len(core.sq) > 8 {
			t.Fatalf("SQ grew to %d > capacity", len(core.sq))
		}
	}
	if core.Committed() == 0 {
		t.Fatal("no forward progress under chaos")
	}
}
