package replay

import (
	"context"
	"fmt"
	"sort"

	"twodcache/internal/pcache"
	"twodcache/internal/store"
)

// Shadow is one client's loss-epoch oracle over a store. It shadows the
// last byte the client wrote at each address, with the owning set's
// loss epoch sampled before the write, and classifies every later
// mismatching read: accounted if the epoch has moved since (a reported
// repair or decommission discarded the data), silent if it has not —
// the outcome the 2D code must never produce. Every op is a 1-op
// batch, the store's only data path. The soak's clients and the
// replayer both drive their stores through a Shadow. One client owns
// one; it is not safe for concurrent use.
type Shadow struct {
	Tally

	st     *store.Sharded
	rec    *Recorder
	client int
	val    map[uint64]byte
	epoch  map[uint64]uint64
	rop    []pcache.ReadOp
	wop    []pcache.WriteOp
}

// Tally is the oracle's taxonomy of client ops.
type Tally struct {
	// Accounted counts mismatches explained by a loss-epoch advance,
	// Reported the ops that failed even after the escalation ladder,
	// and Silent the mismatches with the epoch unmoved.
	Accounted, Reported, Silent uint64
	// SilentDetails describes each silent mismatch, in order.
	SilentDetails []string
}

// NewShadow starts an empty shadow over st. A non-nil rec records each
// Write and Read as an event of client; Sweep's reads are not recorded,
// because the replayer sweeps its own shadow.
func NewShadow(st *store.Sharded, rec *Recorder, client int) *Shadow {
	return &Shadow{
		st: st, rec: rec, client: client,
		val:   map[uint64]byte{},
		epoch: map[uint64]uint64{},
		rop:   []pcache.ReadOp{{Dst: make([]byte, 1)}},
		wop:   []pcache.WriteOp{{Data: make([]byte, 1)}},
	}
}

// Write stores val at addr and shadows it. The epoch is sampled before
// the write, so an epoch move racing the write shows as an advance,
// never as a stale record. It returns the op's error.
func (s *Shadow) Write(addr uint64, val byte) error {
	if s.rec != nil {
		s.rec.Write(s.client, addr, val)
	}
	e0 := s.st.LossEpoch(addr)
	s.wop[0].Addr, s.wop[0].Data[0] = addr, val
	if s.st.WriteBatch(s.wop); s.wop[0].Err != nil {
		return s.fail(addr, s.wop[0].Err)
	}
	s.val[addr], s.epoch[addr] = val, e0
	return nil
}

// Read reads addr with its recovery bounded by ctx and classifies a
// mismatch against the shadow. It returns the op's error.
func (s *Shadow) Read(ctx context.Context, addr uint64) error {
	if s.rec != nil {
		s.rec.Read(s.client, addr)
	}
	return s.read(ctx, addr, "")
}

// Sweep re-reads every shadowed address in ascending order: once the
// storm has stopped, every tracked byte must still be explained.
func (s *Shadow) Sweep() {
	addrs := make([]uint64, 0, len(s.val))
	for a := range s.val {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s.read(context.Background(), a, " on final sweep")
	}
}

func (s *Shadow) read(ctx context.Context, addr uint64, when string) error {
	want, tracked := s.val[addr]
	s.rop[0].Addr = addr
	if s.st.ReadBatchCtx(ctx, s.rop); s.rop[0].Err != nil {
		return s.fail(addr, s.rop[0].Err)
	}
	got := s.rop[0].Dst[0]
	if !tracked || got == want {
		return nil
	}
	if s.st.LossEpoch(addr) == s.epoch[addr] {
		s.Silent++
		s.SilentDetails = append(s.SilentDetails, fmt.Sprintf(
			"silent corruption at %#x%s: got %#x want %#x (loss epoch unmoved)", addr, when, got, want))
	} else {
		s.Accounted++
	}
	// Either way the store's view is now authoritative.
	s.val[addr], s.epoch[addr] = got, s.st.LossEpoch(addr)
	return nil
}

// fail counts an op the ladder gave up on (or a deadline abandoned) as
// reported, never silent: it repairs the set and drops the stale
// expectation.
func (s *Shadow) fail(addr uint64, err error) error {
	s.Reported++
	e, la := s.st.Locate(addr)
	e.Cache().Repair(la)
	delete(s.val, addr)
	delete(s.epoch, addr)
	return err
}
