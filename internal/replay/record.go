package replay

import "sync"

// Recorder collects a totally-ordered event trace from a concurrent
// run: client goroutines, the fault storm, and the scrub loop all
// append through one mutex, so the recorded order is the order in
// which the events reached the recorder. With a single bank (the
// hard-storm configuration) that is close to the bank-lock acquisition
// order, but not equal to it: client ops and scrub sweeps are recorded
// before they take the bank lock and storm flips under it, so a
// single-threaded replay can order an op and a flip differently and
// drift a few accounted losses from the live run (ROADMAP item 2).
type Recorder struct {
	mu sync.Mutex
	tr Trace
}

// NewRecorder starts an empty trace over the given geometry.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{tr: Trace{Cfg: cfg}}
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	r.tr.Events = append(r.tr.Events, e)
	r.mu.Unlock()
}

// Read records a 1-byte client read.
func (r *Recorder) Read(client int, addr uint64) {
	r.append(Event{Op: OpRead, Client: client, Addr: addr})
}

// Write records a 1-byte client write.
func (r *Recorder) Write(client int, addr uint64, val byte) {
	r.append(Event{Op: OpWrite, Client: client, Addr: addr, Val: val})
}

// Flip records one injected bit flip.
func (r *Recorder) Flip(bank int, tags bool, row, col int) {
	r.append(Event{Op: OpFlip, Bank: bank, Tags: tags, Row: row, Col: col})
}

// Scrub records one single-bank scrub sweep.
func (r *Recorder) Scrub(bank int) {
	r.append(Event{Op: OpScrub, Bank: bank})
}

// Trace returns a snapshot copy of everything recorded so far.
func (r *Recorder) Trace() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.Clone()
}

// SaveFile writes the recorded trace to path.
func (r *Recorder) SaveFile(path string) error {
	return r.Trace().SaveFile(path)
}
