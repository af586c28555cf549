package replay

import (
	"context"
	"testing"

	"twodcache/internal/twod"
)

// TestRecordThenReplayMatchesLive drives a live machine through a
// recording Shadow — the step every soak client runs — then replays the
// trace and demands the same end state. The run plants a bit flip in a
// word of the line that the 1-byte read does not cover: the batch read
// checks the whole line, so the live run repairs that word, and the
// replay must take that same path. A read path that checked only the
// covered word would leave the flip in place and end in a different
// state.
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
	sh := NewShadow(live.st, rec, 0)
	ctx := context.Background()
	if err := sh.Write(0, 0x5a); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := sh.Read(ctx, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Line 0 sits in set 0, way 0: data row 0. Strike the line's last
	// word, far from the byte the reads cover.
	cache := live.st.Shard(0).Cache()
	var data *twod.Array
	var word int
	cache.WithBankLock(0, func(d, _ *twod.Array) {
		data, word = d, d.Layout().WordsPerRow-1
		col := d.Layout().PhysColumn(word, 3)
		rec.Flip(0, false, 0, col)
		d.FlipBit(0, col)
	})
	if err := sh.Read(ctx, 0); err != nil {
		t.Fatalf("read after flip: %v", err)
	}
	if _, ok := data.TryReadUint64(0, word); !ok {
		t.Fatal("the read left the flipped word outside its span unrepaired")
	}
	// The replayer's final sweep and flush, run on the live side too.
	sh.Sweep()
	if err := live.st.Flush(); err != nil {
		t.Fatal(err)
	}
	// A read that returned anything but 0x5a would count as accounted
	// or silent.
	if sh.Silent != 0 || sh.Reported != 0 || sh.Accounted != 0 {
		t.Fatalf("live taxonomy: %d accounted, %d reported, %d silent",
			sh.Accounted, sh.Reported, sh.Silent)
	}

	res, err := Run(rec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent != 0 || res.Reported != 0 || res.Accounted != 0 || res.FlipsApplied != 1 {
		t.Fatalf("replay taxonomy: %+v", res)
	}
	if got, want := res.Report, live.st.Shard(0).Report(); got != want {
		t.Fatalf("replayed report differs from the live run:\n got  %+v\n want %+v", got, want)
	}
	if got, want := res.StateHash, stateHash(cache, live.reg); got != want {
		t.Fatalf("replayed state hash %#x, live %#x", got, want)
	}
}
