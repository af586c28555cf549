package replay

import (
	"bytes"
	"fmt"
	"sort"
)

// Verifier holds the loss-epoch rule that soak, the replayer and
// cacheload judge reads by. Per key it keeps the last acked write and
// the owning set's loss epoch sampled before that write. A read that
// differs from the write is accounted when the epoch has advanced since
// the sample (a reported repair or decommission discarded the data),
// and silent when it has not or cannot be read: the outcome the 2D code
// must never produce. After either verdict, and after a failed op, the
// key is forgotten until its next acked write. One client owns one; it
// is not safe for concurrent use.
type Verifier struct {
	Tally

	epoch func(addr uint64) (uint64, error)
	keys  map[uint64]*acked
}

// Tally is the oracle's taxonomy of client ops.
type Tally struct {
	// Accounted counts mismatches explained by a loss-epoch advance,
	// Reported the ops that failed even after the escalation ladder,
	// and Silent the mismatches with the epoch unmoved or unreadable.
	Accounted, Reported, Silent uint64
	// SilentDetails describes each silent mismatch, in order.
	SilentDetails []string
}

// acked is a key's last acked write. A forgotten key keeps its buffer
// for the next write.
type acked struct {
	val   []byte
	epoch uint64
	live  bool
}

// NewVerifier starts an empty verifier over epoch, which reads the loss
// epoch of the set that owns addr.
func NewVerifier(epoch func(addr uint64) (uint64, error)) *Verifier {
	return &Verifier{epoch: epoch, keys: map[uint64]*acked{}}
}

// Sample reads addr's epoch before a write to it. Sampling before the
// write means an epoch move racing the write shows as an advance, never
// as a stale record. When the epoch cannot be read, ok is false: addr is
// forgotten, and the write must not be recorded.
func (v *Verifier) Sample(addr uint64) (epoch uint64, ok bool) {
	e, err := v.epoch(addr)
	if err != nil {
		v.forget(addr)
		return 0, false
	}
	return e, true
}

// Wrote records an acked write of val at addr, with the epoch Sample
// took before it. val is copied.
func (v *Verifier) Wrote(addr uint64, val []byte, epoch uint64) {
	a := v.keys[addr]
	if a == nil {
		a = &acked{}
		v.keys[addr] = a
	}
	a.val = append(a.val[:0], val...)
	a.epoch, a.live = epoch, true
}

// Check judges a successful read of addr that returned got. A match or
// an untracked key passes. A mismatch is counted accounted or silent and
// forgets addr; a silent one is described in SilentDetails, with when
// appended to its address.
func (v *Verifier) Check(addr uint64, got []byte, when string) {
	a := v.keys[addr]
	if a == nil || !a.live || bytes.Equal(got, a.val) {
		return
	}
	a.live = false
	now, err := v.epoch(addr)
	switch {
	case err != nil:
		v.silent(fmt.Sprintf("silent corruption at %#x%s: got %#x want %#x (loss epoch unreadable: %v)", addr, when, got, a.val, err))
	case now > a.epoch:
		v.Accounted++
	default:
		v.silent(fmt.Sprintf("silent corruption at %#x%s: got %#x want %#x (loss epoch unmoved)", addr, when, got, a.val))
	}
}

// Failed counts an op that failed even after the escalation ladder (or
// that a deadline abandoned) as reported, never silent, and forgets
// addr: its contents are unknown until the next acked write.
func (v *Verifier) Failed(addr uint64) {
	v.Reported++
	v.forget(addr)
}

// tracked returns the keys with an acked write on record, ascending.
func (v *Verifier) tracked() []uint64 {
	addrs := make([]uint64, 0, len(v.keys))
	for a, k := range v.keys {
		if k.live {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func (v *Verifier) forget(addr uint64) {
	if a := v.keys[addr]; a != nil {
		a.live = false
	}
}

func (v *Verifier) silent(detail string) {
	v.Silent++
	v.SilentDetails = append(v.SilentDetails, detail)
}
