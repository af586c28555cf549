package replay

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"twodcache/internal/fault"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
	"twodcache/internal/twod"
)

// Result is the outcome of one replay: the soak's mismatch taxonomy,
// the flip-gating tallies, and a digest of the final machine state for
// bit-determinism checks.
type Result struct {
	// Tally is the shadow's taxonomy, with a failed final flush counted
	// as reported and only the first 16 silent mismatches described.
	Tally

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
// machine, the 1-shard store a recorded soak drives, and classifies
// every mismatch through one Shadow, the soak clients' oracle. Client
// ops run as the 1-op store batches the soak issues, so a replay walks
// the recorded run's code path. It is fully deterministic: same trace,
// same Result, bit for bit.
func Run(tr Trace) (Result, error) {
	var res Result
	m, err := newMachine(tr.Cfg)
	if err != nil {
		return res, err
	}
	// One shadow for every client: replay is totally ordered, so a read
	// must return the last write unless the set's loss epoch advanced.
	// The shadow counts a failed op as reported.
	sh := NewShadow(m.st, nil, 0)
	cache := m.st.Shard(0).Cache()
	lineBytes := uint64(cache.Config().LineBytes)
	for _, e := range tr.Events {
		switch e.Op {
		case OpWrite:
			res.Ops++
			sh.Write(e.Addr, e.Val)

		case OpRead:
			res.Ops++
			sh.Read(context.Background(), e.Addr)

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
			m.scrubber.SweepBank(e.Bank)

		case OpPoke:
			// Corrupt the backing store behind the cache's back —
			// harness self-validation only (see OpPoke docs).
			lineAddr := e.Addr &^ (lineBytes - 1)
			line := m.backing.ReadLine(lineAddr)
			line[e.Addr%lineBytes] = e.Val
			m.backing.WriteLine(lineAddr, line)

		default:
			return res, fmt.Errorf("replay: unknown op %q", e.Op)
		}
	}

	sh.Sweep()
	res.Tally = sh.Tally
	res.SilentDetails = res.SilentDetails[:min(len(res.SilentDetails), maxSilentDetails)]
	if err := m.st.Flush(); err != nil {
		res.Reported++
	}
	res.Report = m.st.Shard(0).Report()
	res.StateHash = stateHash(cache, m.reg)
	return res, nil
}

// machine is the replay target: a 1-shard store over a map backing,
// its engine on a deterministic clock, plus the scrubber that serves
// OpScrub events and shard 0's view of the registry.
type machine struct {
	backing  *pcache.MapBacking
	st       *store.Sharded
	scrubber *resilience.Scrubber
	reg      *obs.Registry
}

// newMachine builds a fresh machine for the trace geometry c: the
// store a soak -record run drives, with the engine on a counting clock.
func newMachine(c Config) (machine, error) {
	m := machine{backing: pcache.NewMapBacking(c.LineBytes)}
	root := obs.NewRegistry()
	// Deterministic clock: one tick per reading. Latency histograms and
	// MTTR then depend only on the event sequence, never on the host.
	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Microsecond))
	}
	var err error
	m.st, err = store.New(store.Config{
		Cache: pcache.Config{
			Sets: c.Sets, Ways: c.Ways, LineBytes: c.LineBytes,
			VerticalGroups: c.VerticalGroups, SECDEDHorizontal: c.SECDED,
			Banks: c.Banks,
		},
		Resilience: resilience.Config{
			MaxRetries: c.MaxRetries,
			SpareRows:  c.SpareRows,
			Clock:      clock,
			Metrics:    root,
		},
	}, m.backing)
	if err != nil {
		return m, err
	}
	m.reg = root.WithPrefix("shard0_")
	m.scrubber = m.st.Shard(0).NewScrubber(resilience.ScrubberConfig{})
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
