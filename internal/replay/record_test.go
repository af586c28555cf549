package replay

import (
	"testing"

	"twodcache/internal/pcache"
	"twodcache/internal/twod"
)

// TestRecordThenReplayMatchesLive drives a live machine the way the
// soak drives its store — every client op a 1-op engine batch — while
// recording, then replays the trace and demands the same end state.
// The run plants a bit flip in a word of the line that the 1-byte read
// does not cover: the batch read checks the whole line, so the live
// run repairs that word, and the replay must take that same path. A
// read path that checked only the covered word would leave the flip in
// place and end in a different state.
func TestRecordThenReplayMatchesLive(t *testing.T) {
	cfg := Config{
		Sets: 4, Ways: 2, LineBytes: 64, Banks: 1,
		VerticalGroups: 4, SpareRows: 2, MaxRetries: 1,
	}
	live, err := newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(cfg)
	rop := []pcache.ReadOp{{Dst: make([]byte, 1)}}
	wop := []pcache.WriteOp{{Data: make([]byte, 1)}}
	write := func(addr uint64, v byte) {
		rec.Write(0, addr, v)
		wop[0].Addr, wop[0].Data[0] = addr, v
		if live.eng.WriteBatch(wop); wop[0].Err != nil {
			t.Fatalf("write %#x: %v", addr, wop[0].Err)
		}
	}
	// serve is a read the replayer issues itself (its final sweep), so
	// it is not recorded.
	serve := func(addr uint64, want byte) {
		rop[0].Addr = addr
		if live.eng.ReadBatch(rop); rop[0].Err != nil {
			t.Fatalf("read %#x: %v", addr, rop[0].Err)
		}
		if rop[0].Dst[0] != want {
			t.Fatalf("read %#x = %#x, want %#x", addr, rop[0].Dst[0], want)
		}
	}
	read := func(addr uint64, want byte) {
		rec.Read(0, addr)
		serve(addr, want)
	}

	write(0, 0x5a)
	read(0, 0x5a)
	// Line 0 sits in set 0, way 0: data row 0. Strike the line's last
	// word, far from the byte the reads cover.
	var data *twod.Array
	var word int
	live.cache.WithBankLock(0, func(d, _ *twod.Array) {
		data, word = d, d.Layout().WordsPerRow-1
		col := d.Layout().PhysColumn(word, 3)
		rec.Flip(0, false, 0, col)
		d.FlipBit(0, col)
	})
	read(0, 0x5a)
	if _, ok := data.TryReadUint64(0, word); !ok {
		t.Fatal("the read left the flipped word outside its span unrepaired")
	}
	// The replayer's final sweep and flush, mirrored on the live side.
	serve(0, 0x5a)
	if err := live.eng.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(rec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent != 0 || res.Reported != 0 || res.Accounted != 0 || res.FlipsApplied != 1 {
		t.Fatalf("replay taxonomy: %+v", res)
	}
	if got, want := res.Report, live.eng.Report(); got != want {
		t.Fatalf("replayed report differs from the live run:\n got  %+v\n want %+v", got, want)
	}
	if got, want := res.StateHash, stateHash(live.cache, live.reg); got != want {
		t.Fatalf("replayed state hash %#x, live %#x", got, want)
	}
}
