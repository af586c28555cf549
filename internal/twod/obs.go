package twod

import (
	"time"

	"twodcache/internal/obs"
)

// arraySink pairs an installed event sink with the label the array
// reports itself as ("data", "tags", ...).
type arraySink struct {
	s     obs.Sink
	label string
}

// SetEventSink installs (or, with nil, removes) a structured event sink
// on the array. The array emits RecoveryEnd after each Recover
// invocation (with set and way -1: recovery is array-wide); label
// names the array in those events. Accesses never touch the sink, so
// the hot path stays allocation-free with any sink installed.
func (a *Array) SetEventSink(s obs.Sink, label string) {
	if s == nil {
		a.sink.Store(nil)
		return
	}
	a.sink.Store(&arraySink{s: s, label: label})
}

// Recover runs the 2D recovery process over the whole array and repairs
// what the coverage allows (Fig. 4(b); see recoverImpl for the steps),
// emitting a RecoveryEnd event when a sink is installed.
func (a *Array) Recover() RecoveryReport {
	h := a.sink.Load()
	if h == nil {
		return a.recoverImpl()
	}
	start := time.Now()
	rep := a.recoverImpl()
	h.s.RecoveryEnd(h.label, -1, -1, rep.Success, time.Since(start))
	return rep
}
