// Package workload generates synthetic instruction and memory-address
// streams standing in for the paper's commercial (OLTP, DSS, Web) and
// scientific (Moldyn, Ocean, Sparse) workloads. The generators control
// the properties the 2D-coding experiments are sensitive to — memory
// intensity, store fraction, working-set sizes at each cache level,
// streaming behaviour, and cross-core sharing — so the simulated cache
// traffic matches the shape of the access breakdowns the paper reports
// in Fig. 6, even though no real applications run.
package workload

import (
	"fmt"
	"math/rand"
)

// Instr is one committed instruction of the synthetic trace.
type Instr struct {
	// IsMem reports whether the instruction accesses data memory.
	IsMem bool
	// IsWrite distinguishes stores from loads (meaningful when IsMem).
	IsWrite bool
	// Addr is the byte address accessed (meaningful when IsMem).
	Addr uint64
}

// Profile parameterises one workload's memory behaviour.
type Profile struct {
	// Name is the workload label used in the paper's figures.
	Name string
	// MemFrac is the fraction of instructions that are loads or stores.
	MemFrac float64
	// WriteFrac is the store fraction of memory operations.
	WriteFrac float64
	// HotLines is the per-thread hot working set in cache lines
	// (intended to be L1-resident).
	HotLines int
	// WarmLines is the per-thread secondary working set in lines
	// (L2-resident, misses L1 often).
	WarmLines int
	// HotFrac is the fraction of non-streaming accesses that go to the
	// hot set (the rest go to the warm set).
	HotFrac float64
	// StreamFrac is the fraction of accesses that walk sequentially
	// through a large region (scan/grid behaviour; misses both levels
	// at line boundaries).
	StreamFrac float64
	// SharedFrac is the fraction of accesses directed at a global
	// shared region, generating coherence traffic (L1-to-L1 transfers
	// of dirty data).
	SharedFrac float64
	// SharedLines is the size of the global shared region in lines.
	SharedLines int
	// IFetchMissRate is the L1-I miss probability per fetch group,
	// driving instruction reads into the L2.
	IFetchMissRate float64
}

// Validate checks the profile's parameters.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	for _, f := range []float64{p.MemFrac, p.WriteFrac, p.HotFrac, p.StreamFrac, p.SharedFrac, p.IFetchMissRate} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload %s: fraction %v out of [0,1]", p.Name, f)
		}
	}
	if p.HotLines <= 0 || p.WarmLines <= 0 || p.SharedLines <= 0 {
		return fmt.Errorf("workload %s: working sets must be positive", p.Name)
	}
	return nil
}

// Profiles returns the six workloads of the paper's evaluation, with
// parameters chosen to reflect their published characterisations:
// OLTP is store-heavy with a large secondary working set; DSS and
// Sparse are scan-dominated; Web mixes sharing with moderate stores;
// Moldyn is compute-bound with a small hot set; Ocean sweeps grids.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "OLTP", MemFrac: 0.36, WriteFrac: 0.32,
			HotLines: 128, WarmLines: 1200, HotFrac: 0.95,
			StreamFrac: 0.04, SharedFrac: 0.05, SharedLines: 4096,
			IFetchMissRate: 0.015,
		},
		{
			Name: "DSS", MemFrac: 0.30, WriteFrac: 0.12,
			HotLines: 160, WarmLines: 1500, HotFrac: 0.93,
			StreamFrac: 0.30, SharedFrac: 0.02, SharedLines: 2048,
			IFetchMissRate: 0.006,
		},
		{
			Name: "Web", MemFrac: 0.33, WriteFrac: 0.26,
			HotLines: 144, WarmLines: 1000, HotFrac: 0.94,
			StreamFrac: 0.08, SharedFrac: 0.04, SharedLines: 3072,
			IFetchMissRate: 0.018,
		},
		{
			Name: "Moldyn", MemFrac: 0.27, WriteFrac: 0.34,
			HotLines: 96, WarmLines: 800, HotFrac: 0.97,
			StreamFrac: 0.08, SharedFrac: 0.03, SharedLines: 2048,
			IFetchMissRate: 0.001,
		},
		{
			Name: "Ocean", MemFrac: 0.34, WriteFrac: 0.30,
			HotLines: 128, WarmLines: 1400, HotFrac: 0.92,
			StreamFrac: 0.25, SharedFrac: 0.02, SharedLines: 2048,
			IFetchMissRate: 0.001,
		},
		{
			Name: "Sparse", MemFrac: 0.40, WriteFrac: 0.18,
			HotLines: 128, WarmLines: 2000, HotFrac: 0.90,
			StreamFrac: 0.35, SharedFrac: 0.01, SharedLines: 1024,
			IFetchMissRate: 0.001,
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// lineBytes is the address granularity the generators assume.
const lineBytes = 64

// Address-space layout: each (core, thread) owns disjoint private
// regions; the shared region is global.
const (
	sharedBase  = uint64(1) << 40
	streamBase  = uint64(1) << 41
	privateSize = uint64(1) << 32
)

// Stream generates the instruction trace of one hardware thread.
type Stream struct {
	prof Profile
	rng  *rand.Rand
	irng *rand.Rand // independent stream for i-fetch sampling, so the
	// data trace stays identical across timing variations (matched pairs)
	core   int
	thread int
	base   uint64
	cursor uint64 // streaming pointer
}

// NewStream builds a deterministic generator for (core, thread).
func NewStream(p Profile, core, thread int, seed int64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	id := int64(core)*64 + int64(thread)
	// Stagger region bases so different threads' working sets do not
	// collide on the same cache sets (the bases are otherwise 2^32
	// aligned, which would alias every thread onto set 0).
	stagger := uint64(id) * 131 * lineBytes
	base := uint64(1+id)*privateSize + stagger
	return &Stream{
		prof:   p,
		rng:    rand.New(rand.NewSource(seed ^ (id+1)*0x5851F42D4C957F2D)),
		irng:   rand.New(rand.NewSource(seed ^ (id+7)*0x2545F4914F6CDD1D)),
		core:   core,
		thread: thread,
		base:   base,
		cursor: streamBase + uint64(id)*privateSize + stagger,
	}, nil
}

// MustStream panics on error.
func MustStream(p Profile, core, thread int, seed int64) *Stream {
	s, err := NewStream(p, core, thread, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Next produces the next committed instruction.
func (s *Stream) Next() Instr {
	if s.rng.Float64() >= s.prof.MemFrac {
		return Instr{}
	}
	in := Instr{IsMem: true, IsWrite: s.rng.Float64() < s.prof.WriteFrac}
	r := s.rng.Float64()
	switch {
	case r < s.prof.SharedFrac:
		in.Addr = sharedBase + uint64(s.rng.Intn(s.prof.SharedLines))*lineBytes
	case r < s.prof.SharedFrac+s.prof.StreamFrac:
		// Sequential walk; several accesses per line before advancing.
		in.Addr = s.cursor
		s.cursor += lineBytes / 8
	default:
		if s.rng.Float64() < s.prof.HotFrac {
			in.Addr = s.base + uint64(s.rng.Intn(s.prof.HotLines))*lineBytes
		} else {
			in.Addr = s.base + privateSize/2 + uint64(s.rng.Intn(s.prof.WarmLines))*lineBytes
		}
	}
	// Spread accesses within the line.
	in.Addr += uint64(s.rng.Intn(lineBytes/8)) * 8
	return in
}

// IFetchMiss samples whether this cycle's instruction fetch misses the
// L1-I cache.
func (s *Stream) IFetchMiss() bool {
	return s.irng.Float64() < s.prof.IFetchMissRate
}

// IFetchAddr returns a plausible instruction line address for an L1-I
// miss (a moderate code footprint per thread).
func (s *Stream) IFetchAddr() uint64 {
	const codeLines = 4096
	return s.base + privateSize/4 + uint64(s.irng.Intn(codeLines))*lineBytes
}
