package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRoundTrip: Encode∘Parse is the identity on generated storm
// traces, and re-encoding parses back to the same bytes (the committed
// regression traces rely on the format being stable).
func TestTraceRoundTrip(t *testing.T) {
	tr := Generate(5, HardStormParams())
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Cfg != tr.Cfg || back.ExpectSilent != tr.ExpectSilent {
		t.Fatalf("header changed: %+v -> %+v", tr.Cfg, back.Cfg)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("event count %d -> %d", len(tr.Events), len(back.Events))
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, tr.Events[i], back.Events[i])
		}
	}
	var buf2 bytes.Buffer
	if err := back.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding is not byte-stable")
	}
}

// TestReplayDeterminism: two replays of one trace agree bit for bit —
// same taxonomy, same flip gating, same final state digest.
func TestReplayDeterminism(t *testing.T) {
	tr := Generate(11, HardStormParams())
	first, err := Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if first.StateHash != second.StateHash {
		t.Fatalf("state hash differs across replays: %#x vs %#x", first.StateHash, second.StateHash)
	}
	if first.Accounted != second.Accounted || first.Reported != second.Reported ||
		first.Silent != second.Silent || first.FlipsApplied != second.FlipsApplied {
		t.Fatalf("taxonomy differs across replays: %+v vs %+v", first, second)
	}
}

// TestCommittedTraces replays every committed trace in testdata. The
// shrunk regression traces (each a pre-fix silent-corruption repro)
// must now replay with zero silent corruptions; harness-validation
// traces marked "expect silent" must still be classified silent.
// This is the permanent regression gate for the hard-storm bug — see
// also scripts/check.sh, which runs it in tier-1.
//
// Each replay's summary, what soak -replay prints of it (WriteSummary),
// must also match testdata/<trace>.golden byte for byte: taxonomy,
// health report and state hash. A change meant to move a replay
// regenerates the files with
//
//	REGEN_GOLDEN=1 go test ./internal/replay -run TestCommittedTraces
func TestCommittedTraces(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed traces found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			tr, err := ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			WriteSummary(&got, &got, len(tr.Events), res)
			golden := strings.TrimSuffix(path, ".trace") + ".golden"
			if os.Getenv("REGEN_GOLDEN") != "" {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with REGEN_GOLDEN=1 to generate)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("replay summary differs from %s\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
			}
			if tr.ExpectSilent {
				if res.Silent == 0 {
					t.Fatalf("harness-validation trace not classified silent: %+v", res)
				}
				return
			}
			if res.Silent != 0 {
				t.Fatalf("silent corruption replaying %s: %v", path, res.SilentDetails)
			}
			again, err := Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if again.StateHash != res.StateHash {
				t.Fatalf("replay of %s not deterministic: %#x vs %#x", path, res.StateHash, again.StateHash)
			}
		})
	}
}

// TestShrink: ddmin reduces a storm trace to the minimal event set for
// a synthetic predicate, and the result still satisfies it.
func TestShrink(t *testing.T) {
	tr := Generate(3, HardStormParams())
	// Predicate: the trace still contains at least one write and at
	// least one scrub — minimal satisfying trace has exactly 2 events.
	fails := func(c Trace) bool {
		var w, s bool
		for _, e := range c.Events {
			switch e.Op {
			case OpWrite:
				w = true
			case OpScrub:
				s = true
			}
		}
		return w && s
	}
	got := Shrink(tr, fails)
	if !fails(got) {
		t.Fatal("shrunk trace no longer satisfies the predicate")
	}
	if len(got.Events) != 2 {
		t.Fatalf("shrunk to %d events, want 2", len(got.Events))
	}
}

// TestOracleSelfValidation: a trace that corrupts the backing store
// behind the cache's back (OpPoke) MUST be classified silent — if the
// oracle ever stops seeing it, the "zero silent corruptions" results
// everywhere else are meaningless.
func TestOracleSelfValidation(t *testing.T) {
	cfg := Config{
		Sets: 4, Ways: 2, LineBytes: 64, Banks: 1,
		VerticalGroups: 4, SpareRows: 2, MaxRetries: 1,
	}
	tr := Trace{Cfg: cfg, ExpectSilent: true}
	// Write line 0, evict it via two conflicting fills (set 0 holds
	// lines 0, 4, 8 with 2 ways), poke the written-back byte in the
	// backing store, then read it back through a fresh fill.
	tr.Events = []Event{
		{Op: OpWrite, Addr: 0x00, Val: 0xe5},
		{Op: OpRead, Addr: 4 * 64},
		{Op: OpRead, Addr: 8 * 64},
		{Op: OpPoke, Addr: 0x00, Val: 0x5e},
		{Op: OpRead, Addr: 0x00},
	}
	res, err := Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent == 0 {
		t.Fatalf("poked backing byte not classified silent: %+v", res)
	}
	if res.Accounted != 0 || res.Reported != 0 {
		t.Fatalf("poke misclassified: %+v", res)
	}
}

// TestGenerateDeterminism: the generator depends on nothing but
// (seed, params).
func TestGenerateDeterminism(t *testing.T) {
	a := Generate(9, HardStormParams())
	b := Generate(9, HardStormParams())
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestParseRejects: malformed traces fail loudly, never half-parse.
func TestParseRejects(t *testing.T) {
	cases := []string{
		"",                      // no header
		"twodtrace v2\nconfig ", // wrong version
		"twodtrace v1\n",        // missing config
		"twodtrace v1\nconfig sets=64 ways=4 line=64 banks=1 vgroups=32 secded=0 spares=8 retries=1\nz 1 2\n",
		"twodtrace v1\nconfig sets=64 ways=4 line=64 banks=1 vgroups=32 secded=0 spares=8 retries=1\nr 0\n",
		"twodtrace v1\nconfig sets=64 ways=4 line=64 banks=1 vgroups=32 secded=0 spares=8 retries=1\nf 0 q 1 2\n",
		"twodtrace v1\nconfig sets=64 bogus=1\nr 0 0\n",
	}
	for i, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: malformed trace parsed cleanly", i)
		}
	}
}

// TestCommittedTraceFilesParse keeps the testdata headers honest: any
// comment lines must round-trip away (comments are documentation, not
// state).
func TestCommittedTraceFilesParse(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "*.trace"))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(bytes.NewReader(raw)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
