package twodcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickExperimentsMatchGolden pins the quick-sized paper artefacts
// to the tables EXPERIMENTS.md quotes: each experiment's rendered
// tables must match testdata/experiments/<id>.txt byte for byte. It
// covers every quick experiment except the eight that run the CMP
// simulator (fig5a/b, fig6a/b, abl-ps, abl-wt, abl-err, abl-repl), which
// take seconds each and build no code or array. The files are what
// `go run ./cmd/repro -o testdata/experiments <id>` writes; regenerate
// them only for a change that is meant to move the numbers.
func TestQuickExperimentsMatchGolden(t *testing.T) {
	ids := []string{
		"fig1b", "fig1c", "fig2", "fig3", "fig4", "tab1", "fig7a", "fig7b", "fig8a", "fig8b",
		"abl-vint", "abl-hcode", "abl-bch", "abl-scrub", "abl-bisr", "abl-vcode", "abl-hintv", "abl-miscorrect",
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "experiments", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			tabs, err := Experiment(id, QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, tab := range tabs {
				got.WriteString(tab.Render())
				got.WriteByte('\n')
			}
			if got.String() != string(want) {
				t.Errorf("%s differs from its golden file\n got:\n%s\nwant:\n%s", id, got.String(), want)
			}
		})
	}
}
