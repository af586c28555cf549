package fault

import (
	"context"
	"sync/atomic"
	"time"
)

// Stall is a chaos-injectable stall point for recovery paths: the
// software analogue of a wedged BIST controller or a recovery process
// that stopped making progress. A subsystem plants a *Stall at the spot
// it wants to be able to wedge (the resilience engine calls Hit at the
// entry of its full-2D rung) and tests or chaos drivers arm it with a
// duration. Unarmed — or nil — a Stall costs one atomic load and never
// blocks, so production paths can call Hit unconditionally.
//
// Hit honours context cancellation: a repair budget that runs out
// force-escalates the stuck repair and cancels its context, which
// releases the stall immediately instead of waiting the armed duration
// out. That is exactly the mechanism cmd/soak's chaos mode exercises.
type Stall struct {
	d     atomic.Int64 // armed stall length in nanoseconds; 0 = disarmed
	fired atomic.Uint64
}

// Arm sets the stall duration applied by subsequent Hit calls.
// Non-positive durations disarm.
func (s *Stall) Arm(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.d.Store(int64(d))
}

// Disarm turns the stall point back into a no-op.
func (s *Stall) Disarm() { s.d.Store(0) }

// Fired returns how many Hit calls actually stalled.
func (s *Stall) Fired() uint64 {
	if s == nil {
		return 0
	}
	return s.fired.Load()
}

// Hit blocks for the armed duration or until ctx is cancelled,
// whichever comes first. A nil receiver, a disarmed stall, or a nil ctx
// with no armed duration all return immediately.
func (s *Stall) Hit(ctx context.Context) {
	if s == nil {
		return
	}
	d := time.Duration(s.d.Load())
	if d <= 0 {
		return
	}
	s.fired.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	if ctx == nil {
		<-t.C
		return
	}
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
