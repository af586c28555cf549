package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// repeatSummary is -repeat's JSON line: a trajectory point.
type repeatSummary struct {
	Host      map[string]any             `json:"host"`
	Seconds   float64                    `json:"seconds"`
	Seeds     []int64                    `json:"seeds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Median  map[string]float64   `json:"median"`
	IQRFrac map[string]float64   `json:"iqr_frac"` // (q3-q1)/median
	Runs    []map[string]float64 `json:"runs"`
}

// repeatRuns runs the untraced benchmark n times per workload, each in
// its own process with its own seed, and prints every end-to-end
// metric's median and spread (q3 - q1), flagging a spread wider than
// the metric's bound. It returns the exit code.
func repeatRuns(names string, seed int64, seconds float64, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var wls []workload
	if names == "all" {
		wls = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			wl, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			wls = append(wls, wl)
		}
	}
	sum := repeatSummary{
		Host: map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     commit(),
		},
		Seconds:   seconds,
		Workloads: map[string]workloadSummary{},
	}
	for i := 0; i < n; i++ {
		sum.Seeds = append(sum.Seeds, seed+int64(i))
	}
	code := 0
	for _, wl := range wls {
		ws := workloadSummary{Median: map[string]float64{}, IQRFrac: map[string]float64{}}
		for _, s := range sum.Seeds {
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var line resultLine
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if jerr := json.Unmarshal(lines[len(lines)-1], &line); err != nil || jerr != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed: %v %v\n", wl.name, s, err, jerr)
				code = 1
				continue
			}
			ws.Runs = append(ws.Runs, metricLines(lines))
		}
		fmt.Printf("%s: %d runs of %gs\n", wl.name, len(ws.Runs), seconds)
		for _, d := range slices.Concat(unlisted, endToEnd) {
			xs := make([]float64, len(ws.Runs))
			for i, r := range ws.Runs {
				xs[i] = r[d.name]
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			ws.Median[d.name], ws.IQRFrac[d.name] = med, ratio(q3-q1, med)
			flag := ""
			if q3-q1 > d.allowed(med) {
				flag = "  SPREAD ABOVE BOUND"
			}
			if !slices.Contains(endToEnd, d) {
				flag += "  (not in BENCHMARK.json)"
			}
			fmt.Printf("  %-18s median %14.6g %-6s IQR %14.6g (%.3f%% of median), bound %.6g%s\n",
				d.name, med, d.unit, q3-q1, 100*ws.IQRFrac[d.name], d.allowed(med), flag)
		}
		sum.Workloads[wl.name] = ws
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return code
}

// metricLines reads the values printMetrics printed.
func metricLines(lines [][]byte) map[string]float64 {
	vals := map[string]float64{}
	for _, l := range lines {
		f := strings.Fields(string(l))
		if len(f) < 3 || f[0] != "metric" {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			vals[f[1]] = v
		}
	}
	return vals
}

// commit names the checked-out commit when run inside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
