package cache

// Ports tracks per-cycle, per-bank port availability. The simulator
// calls NewCycle once per cycle, then Take to claim slots; a claim
// fails when the bank's ports are exhausted — the structural hazard
// through which 2D coding's read-before-write traffic costs
// performance (§4, §5.1).
type Ports struct {
	banks   int
	perBank int
	used    []int
}

// NewPorts builds a port tracker for banks*perBank slots per cycle.
func NewPorts(banks, perBank int) *Ports {
	return &Ports{banks: banks, perBank: perBank, used: make([]int, banks)}
}

// NewCycle resets the per-cycle usage.
func (p *Ports) NewCycle() {
	for i := range p.used {
		p.used[i] = 0
	}
}

// Take claims one slot on the given bank, reporting success.
func (p *Ports) Take(bank int) bool {
	if p.used[bank] >= p.perBank {
		return false
	}
	p.used[bank]++
	return true
}

// Idle reports whether the bank still has a free slot this cycle.
func (p *Ports) Idle(bank int) bool { return p.used[bank] < p.perBank }

// MSHRFile bounds outstanding misses and merges requests to the same
// line.
type MSHRFile struct {
	cap     int
	pending map[uint64][]int // line addr -> waiter tokens
}

// NewMSHRFile builds an MSHR file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	return &MSHRFile{cap: capacity, pending: make(map[uint64][]int)}
}

// Full reports whether a new (non-mergeable) miss can be accepted.
func (m *MSHRFile) Full() bool { return len(m.pending) >= m.cap }

// Lookup reports whether a miss to the line is already outstanding.
func (m *MSHRFile) Lookup(lineAddr uint64) bool {
	_, ok := m.pending[lineAddr]
	return ok
}

// Allocate registers a miss (or merges into an existing one) and
// attaches a waiter token. It reports false when the file is full and
// no merge is possible.
func (m *MSHRFile) Allocate(lineAddr uint64, waiter int) bool {
	if ws, ok := m.pending[lineAddr]; ok {
		m.pending[lineAddr] = append(ws, waiter)
		return true
	}
	if len(m.pending) >= m.cap {
		return false
	}
	m.pending[lineAddr] = []int{waiter}
	return true
}

// Complete removes the entry for lineAddr and returns its waiters.
func (m *MSHRFile) Complete(lineAddr uint64) []int {
	ws := m.pending[lineAddr]
	delete(m.pending, lineAddr)
	return ws
}
