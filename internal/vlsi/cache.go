package vlsi

import (
	"fmt"

	"twodcache/internal/ecc"
)

// CacheSpec describes a cache data array to be costed. The two specs
// used throughout the paper are the 64 kB L1 (2-way, 2 ports, 1 bank,
// 64-bit words) and the 4 MB L2 (16-way, 1 port, 8 banks, 256-bit
// words).
type CacheSpec struct {
	// Name labels the cache in reports.
	Name string
	// CapacityBytes is the data capacity (check bits are added on top).
	CapacityBytes int
	// Banks divides the capacity into independent banks.
	Banks int
	// Ports is the port count per bank.
	Ports int
	// DataWordBits is the logical access width.
	DataWordBits int
}

// L1Spec64KB returns the paper's 64 kB L1 data cache spec.
func L1Spec64KB() CacheSpec {
	return CacheSpec{Name: "64kB L1", CapacityBytes: 64 << 10, Banks: 1, Ports: 2, DataWordBits: 64}
}

// L2Spec4MB returns the paper's 4 MB L2 cache spec.
func L2Spec4MB() CacheSpec {
	return CacheSpec{Name: "4MB L2", CapacityBytes: 4 << 20, Banks: 8, Ports: 1, DataWordBits: 256}
}

// CodedCacheCost is the modelled cost of one cache bank protected by a
// per-word code, plus the coding logic.
type CodedCacheCost struct {
	// Scheme names the code + interleave combination.
	Scheme string
	// Array is the SRAM bank cost (the wider, check-bit-carrying array).
	Array Metrics
	// CodeStorageFrac is check bits / data bits (plus vertical parity
	// rows when present).
	CodeStorageFrac float64
	// LogicEnergyPJ is the syndrome-generation energy per access.
	LogicEnergyPJ float64
	// SyndromeDelayNS is the check latency appended to a read.
	SyndromeDelayNS float64
	// AccessEnergyPJ is array + logic energy for one access.
	AccessEnergyPJ float64
	// TotalDelayNS is array + syndrome check latency.
	TotalDelayNS float64
}

// CodedCache models spec protected by the given code at the given
// physical interleave degree, exploring the bank organisation under obj.
// verticalRows > 0 adds that many parity rows per bank (the 2D vertical
// code) to the storage accounting.
func CodedCache(t Tech, spec CacheSpec, code ecc.Spec, interleave int, verticalRows int, obj Objective) (CodedCacheCost, error) {
	if spec.DataWordBits != code.DataBits {
		return CodedCacheCost{}, fmt.Errorf("vlsi: cache word %d != code word %d", spec.DataWordBits, code.DataBits)
	}
	cw := code.DataBits + code.CheckBits
	dataBitsPerBank := spec.CapacityBytes * 8 / spec.Banks
	bankBits := dataBitsPerBank * cw / code.DataBits
	p := ArrayParams{
		Bits:       bankBits,
		AccessBits: cw,
		Interleave: interleave,
		Ports:      spec.Ports,
	}
	m, err := Explore(t, p, obj)
	if err != nil {
		return CodedCacheCost{}, err
	}
	logicFJ := float64(code.XORGateCount()) * t.EXorGate
	synNS := float64(code.SyndromeDepth()) * t.TGate

	storage := float64(code.CheckBits) / float64(code.DataBits)
	if verticalRows > 0 {
		// Vertical parity rows span physical rows of the bank.
		totalCols := interleave * cw * m.Org.ColMult
		totalRows := bankBits / totalCols
		storage += float64(verticalRows) / float64(totalRows) * float64(cw) / float64(code.DataBits)
	}

	return CodedCacheCost{
		Scheme:          fmt.Sprintf("%s+Intv%d", code.Name, interleave),
		Array:           m,
		CodeStorageFrac: storage,
		LogicEnergyPJ:   logicFJ / 1000,
		SyndromeDelayNS: synNS,
		AccessEnergyPJ:  m.EnergyPJ + logicFJ/1000,
		TotalDelayNS:    m.DelayNS + synNS,
	}, nil
}

// InterleaveSweep reproduces the Fig. 2 experiment: normalised read
// energy of the cache as the interleave degree sweeps 1..maxDegree
// under one objective. The result is indexed by log2(degree) and
// normalised to degree 1.
func InterleaveSweep(t Tech, spec CacheSpec, code ecc.Spec, maxDegree int, obj Objective) ([]float64, error) {
	var out []float64
	var base float64
	for d := 1; d <= maxDegree; d *= 2 {
		c, err := CodedCache(t, spec, code, d, 0, obj)
		if err != nil {
			return nil, err
		}
		if d == 1 {
			base = c.Array.EnergyPJ
		}
		out = append(out, c.Array.EnergyPJ/base)
	}
	return out, nil
}
