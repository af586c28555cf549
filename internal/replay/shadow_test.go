package replay

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestShadowClassifies pins the oracle's three outcomes on a 1-shard
// store: a mismatch after a decommission is accounted, a mismatch the
// store cannot explain is silent, and a failed op is reported, repairs
// its set and stops being tracked. TestVerifierRule pins the rule
// itself.
func TestShadowClassifies(t *testing.T) {
	cfg := Config{
		Sets: 4, Ways: 2, LineBytes: 64, Banks: 1,
		VerticalGroups: 4, SpareRows: 2, MaxRetries: 1,
	}
	bg := context.Background()
	newShadow := func(t *testing.T) (machine, *Shadow) {
		t.Helper()
		m, err := newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, NewShadow(m.st, nil, 0)
	}
	taxonomy := func(t *testing.T, sh *Shadow, accounted, reported, silent uint64) {
		t.Helper()
		if sh.Accounted != accounted || sh.Reported != reported || sh.Silent != silent {
			t.Fatalf("taxonomy %d accounted, %d reported, %d silent; want %d, %d, %d",
				sh.Accounted, sh.Reported, sh.Silent, accounted, reported, silent)
		}
	}

	t.Run("decommission is accounted", func(t *testing.T) {
		m, sh := newShadow(t)
		for _, a := range []uint64{0, 1} {
			if err := sh.Write(a, 0x5a); err != nil {
				t.Fatal(err)
			}
		}
		// Line 0 is dirty in set 0: retiring its way loses both bytes and
		// advances the set's epoch.
		cache := m.st.Shard(0).Cache()
		lost := false
		for w := 0; w < cfg.Ways && !lost; w++ {
			lost = cache.Decommission(0, w)
		}
		if !lost {
			t.Fatal("no way of set 0 held the dirty line")
		}
		if err := sh.Read(bg, 0); err != nil {
			t.Fatal(err)
		}
		taxonomy(t, sh, 1, 0, 0)
		// The verdict forgot byte 0 until its next write, so the second
		// read is not judged; the sweep finds byte 1's loss.
		if err := sh.Read(bg, 0); err != nil {
			t.Fatal(err)
		}
		sh.Sweep()
		taxonomy(t, sh, 2, 0, 0)
	})

	t.Run("backing poke is silent", func(t *testing.T) {
		m, sh := newShadow(t)
		if err := sh.Write(0, 0xe5); err != nil {
			t.Fatal(err)
		}
		if err := m.st.Flush(); err != nil {
			t.Fatal(err)
		}
		// Set 0 holds lines 0, 4 and 8 in 2 ways: two fills evict the
		// now clean line 0 without a writeback.
		for _, a := range []uint64{4 * 64, 8 * 64} {
			if err := sh.Read(bg, a); err != nil {
				t.Fatal(err)
			}
		}
		line := m.backing.ReadLine(0)
		line[0] = 0x5e
		m.backing.WriteLine(0, line)
		if err := sh.Read(bg, 0); err != nil {
			t.Fatal(err)
		}
		taxonomy(t, sh, 0, 0, 1)
		if len(sh.SilentDetails) != 1 || !strings.Contains(sh.SilentDetails[0], "silent corruption at 0x0: got 0x5e want 0xe5") {
			t.Fatalf("silent details %q", sh.SilentDetails)
		}
	})

	t.Run("op error is reported", func(t *testing.T) {
		m, sh := newShadow(t)
		if err := sh.Write(0, 0x5a); err != nil {
			t.Fatal(err)
		}
		epoch := m.st.LossEpoch(0)
		// An expired context stamps the op with its error instead of
		// serving it.
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if err := sh.Read(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("read under a cancelled ctx: %v", err)
		}
		taxonomy(t, sh, 0, 1, 0)
		if m.st.LossEpoch(0) == epoch {
			t.Fatal("a reported op did not repair its set")
		}
		// The repair discarded the dirty byte, and the entry went with
		// it: the read of the refetched line is not a mismatch.
		if err := sh.Read(bg, 0); err != nil {
			t.Fatal(err)
		}
		taxonomy(t, sh, 0, 1, 0)
	})
}
