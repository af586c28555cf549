package replay

import (
	"context"

	"twodcache/internal/pcache"
	"twodcache/internal/store"
)

// Shadow is one client's loss-epoch oracle over a store: it issues the
// client's ops and judges them by its Verifier, shadowing the last byte
// written at each address. Every op is a 1-op batch, the store's only
// data path. The soak's clients and the replayer both drive their
// stores through a Shadow. One client owns one; it is not safe for
// concurrent use.
type Shadow struct {
	*Verifier

	st     *store.Sharded
	rec    *Recorder
	client int
	rop    []pcache.ReadOp
	wop    []pcache.WriteOp
}

// NewShadow starts an empty shadow over st. A non-nil rec records each
// Write and Read as an event of client; Sweep's reads are not recorded,
// because the replayer sweeps its own shadow.
func NewShadow(st *store.Sharded, rec *Recorder, client int) *Shadow {
	return &Shadow{
		Verifier: NewVerifier(func(addr uint64) (uint64, error) { return st.LossEpoch(addr), nil }),
		st:       st,
		rec:      rec,
		client:   client,
		rop:      []pcache.ReadOp{{Dst: make([]byte, 1)}},
		wop:      []pcache.WriteOp{{Data: make([]byte, 1)}},
	}
}

// Write stores val at addr and shadows it. It returns the op's error.
func (s *Shadow) Write(addr uint64, val byte) error {
	if s.rec != nil {
		s.rec.Write(s.client, addr, val)
	}
	e0, _ := s.Sample(addr) // the store's epoch always reads
	s.wop[0].Addr, s.wop[0].Data[0] = addr, val
	if s.st.WriteBatch(s.wop); s.wop[0].Err != nil {
		return s.fail(addr, s.wop[0].Err)
	}
	s.Wrote(addr, s.wop[0].Data, e0)
	return nil
}

// Read reads addr with its recovery bounded by ctx and checks it
// against the shadow. It returns the op's error.
func (s *Shadow) Read(ctx context.Context, addr uint64) error {
	if s.rec != nil {
		s.rec.Read(s.client, addr)
	}
	return s.read(ctx, addr, "")
}

// Sweep re-reads every tracked address in ascending order: once the
// storm has stopped, every tracked byte must still be explained.
func (s *Shadow) Sweep() {
	for _, a := range s.tracked() {
		s.read(context.Background(), a, " on final sweep")
	}
}

func (s *Shadow) read(ctx context.Context, addr uint64, when string) error {
	s.rop[0].Addr = addr
	if s.st.ReadBatchCtx(ctx, s.rop); s.rop[0].Err != nil {
		return s.fail(addr, s.rop[0].Err)
	}
	s.Check(addr, s.rop[0].Dst, when)
	return nil
}

// fail reports a failed op through the Verifier and repairs the op's
// set, so the client's next access starts from a known state.
func (s *Shadow) fail(addr uint64, err error) error {
	s.Failed(addr)
	e, la := s.st.Locate(addr)
	e.Cache().Repair(la)
	return err
}
