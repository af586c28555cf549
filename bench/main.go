// Command bench is the repository's serving benchmark. In one process
// it builds the stack cachenetd builds (a sharded resilient store
// behind a netsrv server on loopback, or two of them behind a cluster
// client), drives it closed-loop from 2 connections with 4 calls in
// flight on each, checks every read against the loss-epoch oracle, and
// prints each metric with its unit and sample count, then one JSON
// result line.
//
//	go run . -workload hot-single -seed 1            # end-to-end metrics
//	go run . -workload hot-single -seed 1 -trace 1   # per-layer metrics and spans
//	go run . -workload all -repeat 10                # medians and spreads
//
// It exits 1 on silent corruption, 2 on bad flags. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	warmup = 2 * time.Second
	// setups is how many times a run builds and prefills its stack;
	// setup_s is the median and the last build is measured.
	setups = 11
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool           `json:"correct"`
	Attempted uint64         `json:"attempted"`
	Failed    uint64         `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: hot-single, cold-batch, storm-hot, cluster-hot (with -repeat also all or a comma list)")
		seed    = flag.Int64("seed", 1, "input seed; -repeat uses seed, seed+1, ...")
		seconds = flag.Float64("seconds", 20, "measured seconds per run (a traced run splits them between its untraced and traced halves)")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, spans to .bench_build/spans-<workload>.jsonl; any other value: per-layer metrics, spans to that file")
		repeat  = flag.Int("repeat", 0, "run the untraced benchmark this many times, one process each, and print medians and spreads")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and no arguments may follow the flags")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*name, *seed, *seconds, *repeat))
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("bench: workload %s seed %d, %v measured after %v warm-up; nproc %d, GOMAXPROCS %d, %s\n",
		wl.name, *seed, measure, warmup, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("bench: %s\n", wl.why)

	var line resultLine
	if *trace == "0" || *trace == "" {
		line, err = untraced(wl, *seed, measure)
	} else {
		path := *trace
		if path == "1" {
			path = filepath.Join(".bench_build", "spans-"+wl.name+".jsonl")
		}
		line, err = traced(wl, *seed, measure, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// printMetrics prints one line per metric, with every digit of its
// value: -repeat reads them back.
func printMetrics(w io.Writer, defs []metricDef, m map[string]measured) {
	for _, d := range defs {
		v := m[d.name]
		fmt.Fprintf(w, "metric %-40s %22v %-8s n=%d\n", d.name, v.value, d.unit, v.n)
	}
}

func reportRun(label string, r *runResult) {
	fmt.Printf("bench: %s: %d ops in %d calls over %v (%.0f ops/s), %d failed, %d accounted losses, %d SILENT corruptions",
		label, r.ops, r.calls, r.wall.Round(time.Millisecond), throughput(r), r.failed, r.accounted, r.silent)
	if r.injected > 0 {
		fmt.Printf(", %d fault events injected", r.injected)
	}
	fmt.Println()
}

func untraced(wl workload, seed int64, measure time.Duration) (resultLine, error) {
	r, err := run(runConfig{wl: wl, seed: seed, warmup: warmup, measure: measure, setups: setups})
	if err != nil {
		return resultLine{}, err
	}
	reportRun("untraced", r)
	m := endToEndMetrics(r)
	printMetrics(os.Stdout, slices.Concat(unlisted, endToEnd), m)
	return resultLine{Correct: r.silent == 0, Attempted: r.ops, Failed: r.failed, Metrics: metricsJSON(endToEnd, m)}, nil
}

// traced measures half the time untraced and half traced on fresh
// stacks, so the per-layer metrics come with the tracing overhead.
func traced(wl workload, seed int64, measure time.Duration, spansPath string) (resultLine, error) {
	cfg := runConfig{wl: wl, seed: seed, warmup: warmup, measure: measure / 2, setups: 1}
	u, err := run(cfg)
	if err != nil {
		return resultLine{}, err
	}
	reportRun("untraced half", u)
	cfg.traced = true
	r, err := run(cfg)
	if err != nil {
		return resultLine{}, err
	}
	reportRun("traced half", r)
	m := layerMetrics(r, wl.replicas > 1, ratio(throughput(u), throughput(r)))
	printMetrics(os.Stdout, perLayer, m)

	spans := r.tracer.recorded()
	nestErr := checkNesting(spans)
	if nestErr != nil {
		fmt.Fprintln(os.Stderr, "bench: spans:", nestErr)
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return resultLine{}, err
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return resultLine{}, fmt.Errorf("spans: %w", err)
	}
	fmt.Printf("bench: %d spans written to %s (%d children clipped to their parent's end)\n",
		len(spans), spansPath, r.tracer.clippedSpans.Load())
	return resultLine{
		Correct:   u.silent == 0 && r.silent == 0 && nestErr == nil,
		Attempted: u.ops + r.ops,
		Failed:    u.failed + r.failed,
		Metrics:   metricsJSON(perLayer, m),
	}, nil
}
