package sim

import (
	"fmt"
	"math/rand"

	"twodcache/internal/cache"
	"twodcache/internal/cpu"
	"twodcache/internal/workload"
)

// AccessStats breaks cache traffic into the classes of Fig. 6.
type AccessStats struct {
	// ReadData counts demand data reads.
	ReadData uint64
	// ReadInst counts instruction reads (L2 only; L1-I is not modelled
	// in detail).
	ReadInst uint64
	// Write counts stores (L1) or writebacks (L2).
	Write uint64
	// FillEvict counts line fills and their evictions.
	FillEvict uint64
	// ExtraRead counts the additional reads imposed by 2D coding's
	// read-before-write.
	ExtraRead uint64
}

// Total sums all classes.
func (a AccessStats) Total() uint64 {
	return a.ReadData + a.ReadInst + a.Write + a.FillEvict + a.ExtraRead
}

// Result summarises one simulation run.
type Result struct {
	// System and Workload identify the run.
	System, Workload string
	// Protection is the 2D configuration simulated.
	Protection string
	// Cycles is the measured cycle count (after warm-up).
	Cycles uint64
	// Committed is the number of instructions committed in the
	// measurement window, across all cores.
	Committed uint64
	// L1 aggregates data-cache traffic over all cores; L2 is the shared
	// cache's traffic.
	L1, L2 AccessStats
	// L1ToL1 counts dirty-data transfers between L1s.
	L1ToL1 uint64
	// SQFullStalls and PortRejects aggregate core-side contention
	// events.
	SQFullStalls, PortRejects uint64
	// Recoveries counts injected error-recovery events (when
	// Protection.ErrorEveryCycles is set).
	Recoveries uint64
}

// IPC returns aggregate committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// l2OpKind classifies shared-cache operations.
type l2OpKind uint8

const (
	l2DemandData l2OpKind = iota
	l2DemandInst
	l2Writeback
	l2FillReturn
)

// l2Op is one operation queued at an L2 bank.
type l2Op struct {
	kind    l2OpKind
	line    uint64 // line address (byte address >> log2(lineBytes))
	core    int    // requester (demand ops)
	isStore bool   // demand triggered by a store miss
	arrival uint64 // earliest service cycle
}

// l1Fill is a line arriving at a core's L1.
type l1Fill struct {
	line    uint64
	ready   uint64
	isStore bool
}

// Sim is one configured CMP instance.
type Sim struct {
	cfg  SystemConfig
	prot Protection

	cores  []cpu.Core
	traces []*workload.Stream // one per core (thread 0) for ifetch sampling

	l1      []*cache.Cache
	l1Ports []*cache.Ports
	l1MSHR  []*cache.MSHRFile
	stealQ  [][]uint64 // pending stolen extra reads per core
	xferQ   []int      // pending remote-read port charges per core

	l2       *cache.Cache
	l2MSHR   *cache.MSHRFile
	l2Q      [][]l2Op // per bank
	bankFree []uint64 // per bank: next cycle the bank can start an op

	dir map[uint64]int // dirty line -> owning core

	fills [][]l1Fill // per core

	now       uint64
	nextToken uint64
	loadDone  map[uint64]uint64

	rbwReady   []bool     // per core: read half of a read-before-write done
	replCache  [][]uint64 // per core: FIFO of duplicated dirty lines (Zhang [54])
	l1Blocked  []uint64   // per core: L1 unavailable until this cycle (recovery)
	recoveries uint64
	errRng     *rand.Rand

	res Result
}

// New builds a simulator for the system, protection and workload.
func New(cfg SystemConfig, prot Protection, prof workload.Profile, seed int64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prot.WriteThroughL1 && prot.L1TwoD {
		return nil, fmt.Errorf("sim: WriteThroughL1 and L1TwoD are mutually exclusive")
	}
	if prot.ReplicationEntries > 0 && (prot.L1TwoD || prot.WriteThroughL1) {
		return nil, fmt.Errorf("sim: ReplicationEntries excludes L1TwoD/WriteThroughL1")
	}
	if prot.L1TwoD && prot.PortStealing && prot.StealQueueDepth <= 0 {
		prot.StealQueueDepth = 8
	}
	s := &Sim{
		cfg:      cfg,
		prot:     prot,
		l2:       cache.MustNew(cfg.L2),
		l2MSHR:   cache.NewMSHRFile(cfg.L2.MSHRs),
		l2Q:      make([][]l2Op, cfg.L2.Banks),
		bankFree: make([]uint64, cfg.L2.Banks),
		dir:      make(map[uint64]int),
		loadDone: make(map[uint64]uint64),
	}
	s.res = Result{System: cfg.Name, Workload: prof.Name, Protection: prot.String()}
	if prot.ErrorEveryCycles > 0 {
		s.errRng = rand.New(rand.NewSource(seed ^ 0x2D2D2D))
	}
	for c := 0; c < cfg.Cores; c++ {
		s.l1 = append(s.l1, cache.MustNew(cfg.L1))
		s.l1Ports = append(s.l1Ports, cache.NewPorts(cfg.L1.Banks, cfg.L1.PortsPerBank))
		s.l1MSHR = append(s.l1MSHR, cache.NewMSHRFile(cfg.L1.MSHRs))
		s.stealQ = append(s.stealQ, nil)
		s.xferQ = append(s.xferQ, 0)
		s.rbwReady = append(s.rbwReady, false)
		s.replCache = append(s.replCache, nil)
		s.l1Blocked = append(s.l1Blocked, 0)
		s.fills = append(s.fills, nil)

		var core cpu.Core
		var err error
		if cfg.OoO {
			tr := workload.MustStream(prof, c, 0, seed)
			s.traces = append(s.traces, tr)
			core, err = cpu.NewFatCore(cfg.Width, cfg.Window, cfg.SQSize, tr)
		} else {
			var trs []*workload.Stream
			for th := 0; th < cfg.ThreadsPerCore; th++ {
				trs = append(trs, workload.MustStream(prof, c, th, seed))
			}
			s.traces = append(s.traces, trs[0])
			core, err = cpu.NewLeanCore(cfg.Width, cfg.SQSize, trs)
		}
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, core)
	}
	return s, nil
}

// port implements cpu.MemPort for one core.
type port struct {
	s    *Sim
	core int
}

// TryLoad issues a demand load at the core's L1.
func (p port) TryLoad(addr uint64) (uint64, bool) { return p.s.tryLoad(p.core, addr) }

// LoadDone reports load completion.
func (p port) LoadDone(token uint64) bool { return p.s.loadIsDone(token) }

// TryStore retires a store at the core's L1.
func (p port) TryStore(addr uint64) bool { return p.s.tryStore(p.core, addr) }

func (s *Sim) newToken() uint64 {
	s.nextToken++
	return s.nextToken
}

func (s *Sim) loadIsDone(token uint64) bool {
	t, ok := s.loadDone[token]
	if !ok || s.now < t {
		return false
	}
	delete(s.loadDone, token)
	return true
}

func (s *Sim) lineOf(addr uint64) uint64 { return addr >> 6 }

// tryLoad handles a demand load: port arbitration, L1 lookup, MSHR
// allocation and L2 request on a miss, including dirty-in-remote-L1
// detection through the directory.
func (s *Sim) tryLoad(core int, addr uint64) (uint64, bool) {
	if s.now < s.l1Blocked[core] {
		return 0, false
	}
	l1 := s.l1[core]
	bank := l1.Bank(addr)
	if !s.l1Ports[core].Idle(bank) {
		return 0, false
	}
	line := s.lineOf(addr)
	token := s.newToken()
	if l1.Contains(addr) {
		s.l1Ports[core].Take(bank)
		s.res.L1.ReadData++
		l1.Lookup(addr, false)
		s.loadDone[token] = s.now + uint64(s.cfg.L1.HitLatency)
		return token, true
	}
	// Miss: merge into an outstanding MSHR or allocate a new one.
	mshr := s.l1MSHR[core]
	if mshr.Lookup(line) {
		s.l1Ports[core].Take(bank)
		s.res.L1.ReadData++
		l1.Lookup(addr, false) // records the miss
		mshr.Allocate(line, int(token))
		return token, true
	}
	if mshr.Full() {
		return 0, false
	}
	s.l1Ports[core].Take(bank)
	s.res.L1.ReadData++
	l1.Lookup(addr, false)
	mshr.Allocate(line, int(token))
	s.sendL2(l2Op{
		kind:    l2DemandData,
		line:    line,
		core:    core,
		arrival: s.now + uint64(s.cfg.CrossbarLat),
	})
	return token, true
}

// tryStore retires a store: port arbitration (including the 2D
// read-before-write slot or steal-queue admission), L1 update on a hit,
// or a write-allocate miss through the L2.
func (s *Sim) tryStore(core int, addr uint64) bool {
	if s.now < s.l1Blocked[core] {
		return false
	}
	l1 := s.l1[core]
	bank := l1.Bank(addr)
	ports := s.l1Ports[core]
	if s.prot.ReplicationEntries > 0 {
		return s.tryStoreReplicated(core, addr)
	}
	if s.prot.WriteThroughL1 {
		// Write-through, write-around: update the L1 copy if present
		// (never dirty) and duplicate the store into the L2 — the
		// bandwidth/power cost the paper charges this design (§5.1).
		if !ports.Idle(bank) {
			return false
		}
		ports.Take(bank)
		s.res.L1.Write++
		if l1.Contains(addr) {
			l1.Lookup(addr, false)
		}
		s.sendL2(l2Op{kind: l2Writeback, line: s.lineOf(addr), core: core,
			arrival: s.now + uint64(s.cfg.CrossbarLat)})
		return true
	}
	needSteal := false
	if s.prot.L1TwoD {
		if s.prot.PortStealing {
			if len(s.stealQ[core]) >= s.prot.StealQueueDepth {
				return false
			}
			if !ports.Idle(bank) {
				return false
			}
			needSteal = true
		} else if !s.rbwReady[core] {
			// The read half of the read-before-write must occupy a port
			// slot before the write half. A dual-ported L1 fits both in
			// one cycle; a single-ported one spends this cycle on the
			// read and retries the write next cycle.
			if !ports.Idle(bank) {
				return false
			}
			ports.Take(bank)
			s.res.L1.ExtraRead++
			if !ports.Idle(bank) {
				s.rbwReady[core] = true
				return false
			}
		} else if !ports.Idle(bank) {
			return false
		}
	} else if !ports.Idle(bank) {
		return false
	}
	defer func() { s.rbwReady[core] = false }()

	line := s.lineOf(addr)
	if l1.Contains(addr) {
		ports.Take(bank)
		s.res.L1.Write++
		if needSteal {
			s.stealQ[core] = append(s.stealQ[core], addr)
		}
		l1.Lookup(addr, true)
		s.dir[line] = core
		return true
	}
	// Write miss: write-allocate through the L2.
	mshr := s.l1MSHR[core]
	if mshr.Lookup(line) {
		ports.Take(bank)
		s.res.L1.Write++
		if needSteal {
			s.stealQ[core] = append(s.stealQ[core], addr)
		}
		mshr.Allocate(line, -1)
		s.markStoreMiss(core, line)
		return true
	}
	if mshr.Full() {
		return false
	}
	ports.Take(bank)
	s.res.L1.Write++
	if needSteal {
		s.stealQ[core] = append(s.stealQ[core], addr)
	}
	mshr.Allocate(line, -1)
	s.sendL2(l2Op{
		kind:    l2DemandData,
		line:    line,
		core:    core,
		isStore: true,
		arrival: s.now + uint64(s.cfg.CrossbarLat),
	})
	return true
}

// tryStoreReplicated implements Zhang's replication-cache alternative:
// the store writes the (EDC-only) L1 normally AND deposits a duplicate
// into a small fully-associative buffer. A duplicate displaced from the
// full buffer is written through to the L2 — cheap while the buffer
// absorbs rewrites, expensive when contention forces frequent
// evictions (the paper's §6 critique).
func (s *Sim) tryStoreReplicated(core int, addr uint64) bool {
	l1 := s.l1[core]
	bank := l1.Bank(addr)
	ports := s.l1Ports[core]
	if !ports.Idle(bank) {
		return false
	}
	line := s.lineOf(addr)
	if !l1.Contains(addr) {
		// Write-allocate through the L2 like the write-back baseline.
		mshr := s.l1MSHR[core]
		if mshr.Lookup(line) {
			ports.Take(bank)
			s.res.L1.Write++
			mshr.Allocate(line, -1)
			s.markStoreMiss(core, line)
			return true
		}
		if mshr.Full() {
			return false
		}
		ports.Take(bank)
		s.res.L1.Write++
		mshr.Allocate(line, -1)
		s.sendL2(l2Op{kind: l2DemandData, line: line, core: core, isStore: true,
			arrival: s.now + uint64(s.cfg.CrossbarLat)})
		return true
	}
	ports.Take(bank)
	s.res.L1.Write++
	l1.Lookup(addr, true)
	s.dir[line] = core
	// Deposit the duplicate, merging rewrites of the same line.
	rc := s.replCache[core]
	for i, l := range rc {
		if l == line {
			rc = append(append(rc[:i:i], rc[i+1:]...), line) // move to back
			s.replCache[core] = rc
			return true
		}
	}
	if len(rc) >= s.prot.ReplicationEntries {
		// Oldest duplicate spills to the L2.
		victim := rc[0]
		rc = rc[1:]
		s.sendL2(l2Op{kind: l2Writeback, line: victim, core: core,
			arrival: s.now + uint64(s.cfg.CrossbarLat)})
		s.l1[core].CleanLine(victim << 6)
		delete(s.dir, victim)
	}
	s.replCache[core] = append(rc, line)
	return true
}

// markStoreMiss upgrades an outstanding demand to install dirty.
func (s *Sim) markStoreMiss(core int, line uint64) {
	for i := range s.fills[core] {
		if s.fills[core][i].line == line {
			s.fills[core][i].isStore = true
			return
		}
	}
	for b := range s.l2Q {
		for i := range s.l2Q[b] {
			op := &s.l2Q[b][i]
			if op.kind == l2DemandData && op.core == core && op.line == line {
				op.isStore = true
				return
			}
		}
	}
}

// sendL2 enqueues an operation at its bank.
func (s *Sim) sendL2(op l2Op) {
	bank := s.l2.Bank(op.line << 6)
	s.l2Q[bank] = append(s.l2Q[bank], op)
}

// serveL2 runs one cycle of bank service. Each operation occupies its
// bank for L2Occupancy cycles (2D-protected writes for twice that, the
// read-before-write). Fill returns are served before demands and
// writebacks: they complete MSHRs and unblock the rest of the
// hierarchy, so they must never be head-of-line blocked by an op that
// is itself stalled on a full MSHR file.
func (s *Sim) serveL2() {
	occ := uint64(s.cfg.L2Occupancy)
	for b := range s.l2Q {
		for s.bankFree[b] <= s.now {
			servedOne := false
			for pass := 0; pass < 2 && !servedOne; pass++ {
				for i := 0; i < len(s.l2Q[b]); i++ {
					op := s.l2Q[b][i]
					isFill := op.kind == l2FillReturn
					if op.arrival > s.now || (pass == 0) != isFill {
						continue
					}
					if !s.serveL2Op(op) {
						continue // stalled (e.g. MSHR full); try next op
					}
					s.l2Q[b] = append(s.l2Q[b][:i:i], s.l2Q[b][i+1:]...)
					start := s.bankFree[b]
					if start < s.now {
						start = s.now
					}
					s.bankFree[b] = start + occ
					if s.prot.L2TwoD && (op.kind == l2Writeback || op.kind == l2FillReturn) {
						s.bankFree[b] += occ
						s.res.L2.ExtraRead++
					}
					servedOne = true
					break
				}
			}
			if !servedOne {
				break
			}
		}
	}
}

// serveL2Op executes one bank operation; false means retry later (no
// statistics are recorded for stalled attempts).
func (s *Sim) serveL2Op(op l2Op) bool {
	addr := op.line << 6
	switch op.kind {
	case l2DemandData, l2DemandInst:
		// Dirty in a remote L1? Transfer: write the remote data back to
		// the L2 and forward to the requester (Piranha-style).
		if owner, ok := s.dir[op.line]; ok && owner != op.core {
			if present, dirty := s.l1[owner].Invalidate(addr); present && dirty {
				s.countDemand(op)
				s.res.L1ToL1++
				s.xferQ[owner]++ // the remote L1 pays a read slot
				delete(s.dir, op.line)
				s.l2.Fill(addr, true)
				s.res.L2.Write++
				if op.kind == l2DemandData {
					s.deliver(op, uint64(s.cfg.L2.HitLatency)+2)
				}
				return true
			}
			delete(s.dir, op.line)
		}
		if s.l2.Contains(addr) {
			s.countDemand(op)
			s.l2.Lookup(addr, false)
			if op.kind == l2DemandData {
				s.deliver(op, uint64(s.cfg.L2.HitLatency))
			}
			return true
		}
		// L2 miss.
		if s.l2MSHR.Lookup(op.line) {
			s.countDemand(op)
			s.l2.Lookup(addr, false)
			s.l2MSHR.Allocate(op.line, s.packWaiter(op))
			return true
		}
		if s.l2MSHR.Full() {
			return false
		}
		s.countDemand(op)
		s.l2.Lookup(addr, false)
		s.l2MSHR.Allocate(op.line, s.packWaiter(op))
		s.sendL2(l2Op{kind: l2FillReturn, line: op.line, core: -1,
			arrival: s.now + uint64(s.cfg.MemLat)})
		return true
	case l2Writeback:
		s.res.L2.Write++
		if s.l2.Contains(addr) {
			s.l2.Lookup(addr, true)
		} else {
			ev := s.l2.Fill(addr, true)
			s.handleL2Eviction(ev)
		}
		return true
	case l2FillReturn:
		s.res.L2.FillEvict++
		ev := s.l2.Fill(addr, false)
		s.handleL2Eviction(ev)
		for _, w := range s.l2MSHR.Complete(op.line) {
			if w < 0 {
				continue
			}
			dop := s.unpackWaiter(w, op.line)
			s.deliver(dop, uint64(s.cfg.L2.HitLatency))
		}
		return true
	default:
		panic(fmt.Sprintf("sim: unknown l2 op kind %d", op.kind))
	}
}

// countDemand records a served demand read in the Fig. 6 classes.
func (s *Sim) countDemand(op l2Op) {
	if op.kind == l2DemandInst {
		s.res.L2.ReadInst++
	} else {
		s.res.L2.ReadData++
	}
}

// handleL2Eviction accounts a line displaced from the L2. Dirty victims
// go to memory (unbounded bandwidth, so only the event is counted); the
// hierarchy is non-inclusive, so L1 copies are unaffected.
func (s *Sim) handleL2Eviction(ev cache.Eviction) {
	if ev.Valid && ev.Dirty {
		s.res.L2.FillEvict++
	}
}

// packWaiter encodes (core, isStore) into the MSHR's int waiter.
func (s *Sim) packWaiter(op l2Op) int {
	w := op.core << 1
	if op.isStore {
		w |= 1
	}
	return w
}

func (s *Sim) unpackWaiter(w int, line uint64) l2Op {
	return l2Op{kind: l2DemandData, line: line, core: w >> 1, isStore: w&1 == 1}
}

// deliver schedules the filled line's arrival at the requesting L1.
func (s *Sim) deliver(op l2Op, lat uint64) {
	s.fills[op.core] = append(s.fills[op.core], l1Fill{
		line:    op.line,
		ready:   s.now + lat + uint64(s.cfg.CrossbarLat),
		isStore: op.isStore,
	})
}

// serveFills installs ready lines into their L1s, consuming port slots
// (including the 2D read-before-write of the fill write).
func (s *Sim) serveFills(core int) {
	if s.now < s.l1Blocked[core] {
		return
	}
	ports := s.l1Ports[core]
	q := s.fills[core]
	for len(q) > 0 {
		idx := -1
		for i := range q {
			if q[i].ready <= s.now {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		f := q[idx]
		addr := f.line << 6
		bank := s.l1[core].Bank(addr)
		if !ports.Take(bank) {
			break
		}
		s.res.L1.FillEvict++
		if s.prot.L1TwoD {
			if s.prot.PortStealing {
				s.stealQ[core] = append(s.stealQ[core], addr)
			} else if ports.Take(bank) {
				s.res.L1.ExtraRead++
			} else {
				// No slot for the read half: the fill still completes but
				// the read is charged next cycle through the transfer
				// queue.
				s.xferQ[core]++
			}
		}
		ev := s.l1[core].Fill(addr, f.isStore)
		if f.isStore {
			s.dir[f.line] = core
		}
		if ev.Valid {
			evLine := s.lineOf(ev.Addr)
			if owner, ok := s.dir[evLine]; ok && owner == core {
				delete(s.dir, evLine)
			}
			if ev.Dirty {
				s.sendL2(l2Op{kind: l2Writeback, line: evLine, core: core,
					arrival: s.now + uint64(s.cfg.CrossbarLat)})
			}
		}
		for _, w := range s.l1MSHR[core].Complete(f.line) {
			if w >= 0 {
				s.loadDone[uint64(w)] = s.now + uint64(s.cfg.L1.HitLatency)
			}
		}
		q = append(q[:idx:idx], q[idx+1:]...)
	}
	s.fills[core] = q
}

// drainBackground consumes idle L1 port slots with stolen extra reads
// and deferred transfer charges.
func (s *Sim) drainBackground(core int) {
	ports := s.l1Ports[core]
	for ports.Idle(0) && s.xferQ[core] > 0 {
		ports.Take(0)
		s.xferQ[core]--
		s.res.L1.ExtraRead++
	}
	for ports.Idle(0) && len(s.stealQ[core]) > 0 {
		ports.Take(0)
		s.stealQ[core] = s.stealQ[core][1:]
		s.res.L1.ExtraRead++
	}
}

// Step advances the simulation one cycle.
func (s *Sim) Step() {
	if s.errRng != nil && s.prot.ErrorEveryCycles > 0 &&
		s.now > 0 && s.now%s.prot.ErrorEveryCycles == 0 {
		// A detected multi-bit error strikes a random L1: the bank is
		// unavailable while the BIST-style 2D recovery marches over it.
		core := s.errRng.Intn(len(s.cores))
		lat := s.prot.RecoveryLatencyCycles
		if lat == 0 {
			lat = 2048 // rows * words scan of the paper's 256-row bank
		}
		s.l1Blocked[core] = s.now + lat
		s.recoveries++
	}
	for c := range s.l1Ports {
		s.l1Ports[c].NewCycle()
	}
	s.serveL2()
	for c := range s.cores {
		s.serveFills(c)
	}
	for c, core := range s.cores {
		core.Tick(port{s: s, core: c})
		// Instruction-fetch misses go straight to the L2.
		if s.traces[c].IFetchMiss() {
			s.sendL2(l2Op{kind: l2DemandInst, line: s.lineOf(s.traces[c].IFetchAddr()),
				core: c, arrival: s.now + uint64(s.cfg.CrossbarLat)})
		}
	}
	for c := range s.cores {
		s.drainBackground(c)
	}
	s.now++
}

// Run executes warmup cycles (discarded) then measure cycles, returning
// the measured-window result.
func (s *Sim) Run(warmup, measure uint64) Result {
	for i := uint64(0); i < warmup; i++ {
		s.Step()
	}
	s.res.L1 = AccessStats{}
	s.res.L2 = AccessStats{}
	s.res.L1ToL1 = 0
	base := uint64(0)
	for _, c := range s.cores {
		base += c.Committed()
	}
	for i := uint64(0); i < measure; i++ {
		s.Step()
	}
	total := uint64(0)
	var sqStalls, rejects uint64
	for _, c := range s.cores {
		total += c.Committed()
		switch cc := c.(type) {
		case *cpu.FatCore:
			sqStalls += cc.SQFullStalls()
			rejects += cc.PortRejects()
		case *cpu.LeanCore:
			sqStalls += cc.SQFullStalls()
			rejects += cc.PortRejects()
		}
	}
	s.res.Cycles = measure
	s.res.Committed = total - base
	s.res.SQFullStalls = sqStalls
	s.res.PortRejects = rejects
	s.res.Recoveries = s.recoveries
	return s.res
}

// PendingLoads reports outstanding load-completion tokens — an
// observability hook for leak detection in tests.
func (s *Sim) PendingLoads() int { return len(s.loadDone) }

// QueuedL2Ops reports the total operations waiting at L2 banks.
func (s *Sim) QueuedL2Ops() int {
	n := 0
	for _, q := range s.l2Q {
		n += len(q)
	}
	return n
}
