package replay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/twod"
)

// Result is the outcome of one replay: the soak's mismatch taxonomy,
// the flip-gating tallies, and a digest of the final machine state for
// bit-determinism checks.
type Result struct {
	// Accounted counts read mismatches explained by a loss-epoch
	// advance (a reported repair/decommission moved the data).
	Accounted uint64
	// Reported counts DUEs surfaced to the client even after the
	// escalation ladder (plus failed final flushes).
	Reported uint64
	// Silent counts mismatches with the loss epoch unmoved — the
	// outcome the 2D scheme must never produce.
	Silent uint64
	// SilentDetails describes each silent mismatch (bounded).
	SilentDetails []string

	// FlipsApplied/FlipsSkipped count OpFlip events that were applied
	// vs gated off (covering word already dirty, or out of range).
	FlipsApplied, FlipsSkipped uint64
	// Ops counts client read/write events executed.
	Ops uint64

	// StateHash digests the final contents of every protected
	// sub-array (data, tags, and vertical parity planes) and the final
	// metrics snapshot. Two replays of one trace must agree exactly.
	StateHash uint64

	// Report is the engine's final health report.
	Report resilience.Report
}

const maxSilentDetails = 16

// Run replays the trace single-threaded against a freshly built
// protected cache + resilience engine and classifies every mismatch
// with the loss-epoch protocol (the soak's oracle). Client ops run as
// 1-op engine batches, exactly the calls the soak issues, so a replay
// walks the recorded run's code path. It is fully deterministic: same
// trace, same Result, bit for bit.
func Run(tr Trace) (Result, error) {
	var res Result
	m, err := newMachine(tr.Cfg)
	if err != nil {
		return res, err
	}
	cache, backing, eng, scrubber := m.cache, m.backing, m.eng, m.scrubber
	cfg := cache.Config()

	lineBytes := uint64(cfg.LineBytes)
	setOf := func(addr uint64) int {
		return int((addr / lineBytes) % uint64(cfg.Sets))
	}

	// The oracle: one global shadow of the last value written per
	// address. Sound because replay is totally ordered — a read must
	// return the last write unless the set's loss epoch advanced.
	shadow := map[uint64]byte{}
	wep := map[uint64]uint64{}

	onError := func(addr uint64) {
		res.Reported++
		cache.Repair(addr)
		delete(shadow, addr)
	}
	classify := func(addr uint64, got, want byte, when string) {
		if cache.LossEpoch(setOf(addr)) == wep[addr] {
			res.Silent++
			if len(res.SilentDetails) < maxSilentDetails {
				res.SilentDetails = append(res.SilentDetails,
					fmt.Sprintf("silent corruption at %#x%s: got %#x want %#x (loss epoch unmoved)", addr, when, got, want))
			}
		} else {
			res.Accounted++
		}
	}

	rop := []pcache.ReadOp{{Dst: make([]byte, 1)}}
	wop := []pcache.WriteOp{{Data: make([]byte, 1)}}
	for _, e := range tr.Events {
		switch e.Op {
		case OpWrite:
			res.Ops++
			set := setOf(e.Addr)
			// Capture the epoch BEFORE the write, as the soak does: a
			// degrade racing the write then shows an advance, never a
			// stale record.
			e0 := cache.LossEpoch(set)
			wop[0].Addr, wop[0].Data[0] = e.Addr, e.Val
			if eng.WriteBatch(wop); wop[0].Err != nil {
				onError(e.Addr)
				continue
			}
			shadow[e.Addr] = e.Val
			wep[e.Addr] = e0

		case OpRead:
			res.Ops++
			want, tracked := shadow[e.Addr]
			rop[0].Addr = e.Addr
			if eng.ReadBatch(rop); rop[0].Err != nil {
				onError(e.Addr)
				continue
			}
			if got := rop[0].Dst[0]; tracked && got != want {
				classify(e.Addr, got, want, "")
				// Either way the cache's view is now authoritative.
				shadow[e.Addr] = got
				wep[e.Addr] = cache.LossEpoch(setOf(e.Addr))
			}

		case OpFlip:
			if e.Bank >= cache.NumBanks() {
				res.FlipsSkipped++
				continue
			}
			cache.WithBankLock(e.Bank, func(data, tags *twod.Array) {
				a := data
				if e.Tags {
					a = tags
				}
				if e.Row >= a.Rows() || e.Col >= a.RowBits() {
					res.FlipsSkipped++
					return
				}
				// Gate exactly like the live storm: strike only words
				// that currently check clean.
				if !fault.FlipIfClean(a, e.Row, e.Col) {
					res.FlipsSkipped++
					return
				}
				res.FlipsApplied++
			})

		case OpScrub:
			if e.Bank >= cache.NumBanks() {
				continue
			}
			scrubber.SweepBank(e.Bank)

		case OpPoke:
			// Corrupt the backing store behind the cache's back —
			// harness self-validation only (see OpPoke docs).
			lineAddr := e.Addr &^ (lineBytes - 1)
			line := backing.ReadLine(lineAddr)
			line[e.Addr%lineBytes] = e.Val
			backing.WriteLine(lineAddr, line)

		default:
			return res, fmt.Errorf("replay: unknown op %q", e.Op)
		}
	}

	// Final sweep, like the soak's: every tracked byte must still be
	// explained. Sorted for determinism (map iteration is randomised).
	addrs := make([]uint64, 0, len(shadow))
	for a := range shadow {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		rop[0].Addr = addr
		if eng.ReadBatch(rop); rop[0].Err != nil {
			res.Reported++
			cache.Repair(addr)
			continue
		}
		if got, want := rop[0].Dst[0], shadow[addr]; got != want {
			classify(addr, got, want, " on final sweep")
		}
	}
	if err := eng.Flush(); err != nil {
		res.Reported++
	}

	res.Report = eng.Report()
	res.StateHash = stateHash(cache, m.reg)
	return res, nil
}

// machine is the replay target: a protected cache over a map backing,
// driven by a resilience engine on a deterministic clock, plus the
// scrubber that serves OpScrub events.
type machine struct {
	backing  *pcache.MapBacking
	cache    *pcache.Cache
	eng      *resilience.Engine
	scrubber *resilience.Scrubber
	reg      *obs.Registry
}

// newMachine builds a fresh machine for the trace geometry c.
func newMachine(c Config) (machine, error) {
	cfg := pcache.Config{
		Sets: c.Sets, Ways: c.Ways, LineBytes: c.LineBytes,
		VerticalGroups: c.VerticalGroups, SECDEDHorizontal: c.SECDED,
		Banks: c.Banks,
	}
	m := machine{backing: pcache.NewMapBacking(cfg.LineBytes), reg: obs.NewRegistry()}
	var err error
	if m.cache, err = pcache.New(cfg, m.backing); err != nil {
		return m, err
	}
	// Deterministic clock: one tick per reading. Latency histograms and
	// MTTR then depend only on the event sequence, never on the host.
	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Microsecond))
	}
	m.eng = resilience.New(m.cache, resilience.Config{
		MaxRetries: c.MaxRetries,
		SpareRows:  c.SpareRows,
		Clock:      clock,
		Metrics:    m.reg,
	})
	m.scrubber = m.eng.NewScrubber(resilience.ScrubberConfig{})
	return m, nil
}

// stateHash digests every bank's data, tag, and vertical-parity planes
// plus the final metrics snapshot. Bit-exact replay determinism is
// asserted against this value.
func stateHash(cache *pcache.Cache, reg *obs.Registry) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	hashArray := func(a *twod.Array) {
		m := a.SnapshotData()
		for r := 0; r < m.Rows(); r++ {
			for _, w := range m.RowWords(r) {
				word(w)
			}
		}
		for g := 0; g < a.VerticalGroups(); g++ {
			for _, w := range a.ParityRowWords(g) {
				word(w)
			}
		}
	}
	for i := 0; i < cache.NumBanks(); i++ {
		data, tags := cache.BankArrays(i)
		hashArray(data)
		hashArray(tags)
	}
	snap := reg.Snapshot()
	for _, name := range snap.Names() {
		h.Write([]byte(name))
		if c, ok := snap.Counters[name]; ok {
			word(c)
		}
		if g, ok := snap.Gauges[name]; ok {
			word(uint64(g))
		}
		if hs, ok := snap.Histograms[name]; ok {
			word(hs.Count)
			word(uint64(hs.Sum))
		}
	}
	return h.Sum64()
}
