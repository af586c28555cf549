package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestMetricTablesMatchBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	// A metric may worsen by max(bound × median, floor) before a change
	// counts as a regression (end-to-end only; floor is in the metric's
	// unit).
	bound, floor float64
}

// allowed is how far the metric may worsen from median.
func (d metricDef) allowed(median float64) float64 { return max(d.bound*median, d.floor) }

// maxShare is the largest bound BENCHMARK.json takes, as a share of the
// median. It stands in for a metric's floor there, since BENCHMARK.json
// holds one share per metric: setup_s's 20 ms floor is 22-25% of
// cold-batch's setup_s (80-92 ms) and several times every other
// workload's (2-7 ms).
const maxShare = 0.25

// jsonBound is the bound BENCHMARK.json lists for the metric.
func (d metricDef) jsonBound() float64 {
	if d.floor > 0 {
		return maxShare
	}
	return d.bound
}

// endToEnd is what a user of the serving stack sees, measured with
// tracing off, as BENCHMARK.json lists it: the metrics whose spread over
// ten runs stays within their bound.
var endToEnd = []metricDef{
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.1},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.1, floor: 0.020},
	{name: "max_rss_mib", unit: "MiB", better: "lower", bound: 0.1},
}

// unlisted are end-to-end metrics the program prints and -repeat
// summarises, but BENCHMARK.json does not list. On a shared 2-vCPU
// virtual machine the host's speed drifts from run to run, and over ten
// 30-second runs the time metrics spread 17-27% (IQR over median) on
// cold-batch, storm-hot and cluster-hot, above their 10% bound; compare
// them between two commits only in alternating pairs (README.md).
// failed_op_frac is 0 on every workload, so no share of its median can
// bound it; the result line carries it as failed over attempted.
var unlisted = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.1},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.1},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.1},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.1},
	{name: "write_p99_us", unit: "us", better: "lower", bound: 0.1},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.1},
	{name: "failed_op_frac", unit: "1", better: "lower", floor: 0.001},
}

// perLayer comes from a traced run, measured from outside the program
// through its public hooks. "Per op" means per client-visible op (each
// op of a batch frame counts).
var perLayer = []metricDef{
	{name: "netsrv.call_us", unit: "us", better: "lower"},
	{name: "netsrv.self_us", unit: "us", better: "lower"},
	{name: "netsrv.ops_per_store_call", unit: "ops/call", better: "higher"},
	{name: "netsrv.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "store.call_us", unit: "us", better: "lower"},
	{name: "store.op_weighted_us", unit: "us", better: "lower"},
	{name: "store.busy_frac", unit: "1", better: "lower"},
	{name: "pcache.hit_ratio", unit: "1", better: "higher"},
	{name: "pcache.misses_per_op", unit: "1/op", better: "lower"},
	{name: "pcache.writebacks_per_op", unit: "1/op", better: "lower"},
	{name: "pcache.backing_calls_per_op", unit: "1/op", better: "lower"},
	{name: "pcache.backing_us", unit: "us", better: "lower"},
	{name: "twod.array_reads_per_op", unit: "1/op", better: "lower"},
	{name: "twod.array_writes_per_op", unit: "1/op", better: "lower"},
	{name: "twod.recoveries_per_s", unit: "1/s", better: "lower"},
	{name: "twod.recovered_words_per_s", unit: "1/s", better: "lower"},
	{name: "twod.recovery_busy_frac", unit: "1", better: "lower"},
	{name: "resilience.scrub_busy_frac", unit: "1", better: "lower"},
	{name: "resilience.scrub_passes_per_s", unit: "1/s", better: "lower"},
	{name: "resilience.ladder_escalations_per_kop", unit: "1/kop", better: "lower"},
	{name: "resilience.ladder_hit_ratio", unit: "1", better: "higher"},
	{name: "cluster.call_us", unit: "us", better: "lower"},
	{name: "cluster.self_us", unit: "us", better: "lower"},
	{name: "cluster.conn_calls_per_op", unit: "1/op", better: "lower"},
	{name: "cluster.hedge_waste_ratio", unit: "1", better: "lower"},
	{name: "cluster.retries_per_kop", unit: "1/kop", better: "lower"},
	{name: "trace.overhead_ratio", unit: "1", better: "lower"},
}

// measured is one metric's value and how many samples it rests on.
type measured struct {
	value float64
	n     uint64
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// throughput is the raw rate the run measured, in ops/s.
func throughput(r *runResult) float64 { return ratio(float64(r.ops), r.wall.Seconds()) }

// endToEndMetrics computes every end-to-end metric of an untraced run.
func endToEndMetrics(r *runResult) map[string]measured {
	ops := float64(r.ops)
	pct := func(h *latencyHist, q float64) measured {
		v, ok := h.percentile(q)
		if !ok && h.n > 0 {
			fmt.Printf("bench: warning: p%g above the %d µs exact range\n", q*100, histLimitUs)
		}
		return measured{v, h.n}
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	return map[string]measured{
		"throughput_ops_s": {throughput(r), r.ops},
		"read_p50_us":      pct(r.readLat, 0.50),
		"read_p99_us":      pct(r.readLat, 0.99),
		"write_p50_us":     pct(r.writeLat, 0.50),
		"write_p99_us":     pct(r.writeLat, 0.99),
		"cpu_us_per_op":    {ratio(float64(r.cpu/time.Nanosecond)/1e3, ops), r.ops},
		"allocs_per_op":    {ratio(float64(r.mallocs), ops), r.ops},
		"failed_op_frac":   {ratio(float64(r.failed), ops), r.ops},
		"setup_s":          {median(setups), uint64(len(setups))},
		"max_rss_mib":      {maxRSSMiB(), 1},
	}
}

// delta sums a counter's growth over the measured window across every
// replica; shard-level names are summed over the shards too.
func (r *runResult) delta(name string, perShard bool) float64 {
	var d float64
	for i := range r.after {
		if !perShard {
			d += float64(r.after[i].Counter(name) - r.before[i].Counter(name))
			continue
		}
		for s := 0; s < r.shards; s++ {
			n := fmt.Sprintf("shard%d_%s", s, name)
			d += float64(r.after[i].Counter(n) - r.before[i].Counter(n))
		}
	}
	return d
}

func (r *runResult) clusterDelta(name string) float64 {
	if r.cluster == nil {
		return 0
	}
	return float64(r.cluster.Counter(name) - r.clusterBefore.Counter(name))
}

// layerMetrics computes every per-layer metric of a traced run;
// overhead is the untraced run's throughput over the traced one's.
func layerMetrics(r *runResult, clustered bool, overhead float64) map[string]measured {
	t := r.tracer
	ops, wall := float64(r.ops), r.wall.Seconds()
	perOp := func(v float64) measured { return measured{ratio(v, ops), r.ops} }
	perSec := func(v float64) measured { return measured{ratio(v, wall), r.ops} }
	span := func(l int) uint64 { return uint64(t.layers[l].calls.Load()) }

	store := &t.layers[layerStore]
	opWeighted := ratio(float64(store.opNs.Load()), float64(store.ops.Load())) / 1e3
	netLayer := layerClient
	if clustered {
		netLayer = layerConn
	}
	netCall := t.layers[netLayer].meanUs()

	// Each scrub sweep runs one recovery over both arrays of every bank;
	// what is left is demand-driven recovery.
	scrubRecoveries := float64(t.scrubPasses.Load()) * 2 * banks
	m := map[string]measured{
		"netsrv.call_us":            {netCall, span(netLayer)},
		"netsrv.self_us":            {netCall - opWeighted, span(netLayer)},
		"netsrv.ops_per_store_call": {ratio(float64(store.ops.Load()), float64(store.calls.Load())), span(layerStore)},
		"netsrv.bytes_per_op":       perOp(r.delta("netsrv_net_bytes_in_total", false) + r.delta("netsrv_net_bytes_out_total", false)),

		"store.call_us":        {store.meanUs(), span(layerStore)},
		"store.op_weighted_us": {opWeighted, span(layerStore)},
		"store.busy_frac":      {ratio(float64(t.storeBusyNs())/1e9, wall), span(layerStore)},

		// Each snapshot clamps hits to accesses, but two snapshots' deltas
		// can still cross by a few counts.
		"pcache.hit_ratio":            {min(1, ratio(r.delta("store_hits_total", false), r.delta("store_accesses_total", false))), r.ops},
		"pcache.misses_per_op":        perOp(r.delta("store_misses_total", false)),
		"pcache.writebacks_per_op":    perOp(r.delta("store_writebacks_total", false)),
		"pcache.backing_calls_per_op": perOp(float64(span(layerBacking))),
		"pcache.backing_us":           {t.layers[layerBacking].meanUs(), span(layerBacking)},

		"twod.array_reads_per_op":    perOp(r.delta("pcache_array_reads_total", true)),
		"twod.array_writes_per_op":   perOp(r.delta("pcache_array_writes_total", true)),
		"twod.recoveries_per_s":      perSec(max(0, r.delta("pcache_array_recoveries_total", true)-scrubRecoveries)),
		"twod.recovered_words_per_s": perSec(r.delta("pcache_array_recovered_words_total", true)),
		"twod.recovery_busy_frac":    {ratio(max(0, float64(t.arrayRecNs.Load()-t.scrubNs.Load()))/1e9, wall), r.ops},

		"resilience.scrub_busy_frac":            {ratio(float64(t.scrubNs.Load())/1e9, wall), uint64(t.scrubPasses.Load())},
		"resilience.scrub_passes_per_s":         {ratio(float64(t.scrubPasses.Load()), wall), uint64(t.scrubPasses.Load())},
		"resilience.ladder_escalations_per_kop": perOp(1e3 * r.delta("resilience_dues_total", true)),
		"resilience.ladder_hit_ratio": {ratio(r.delta("resilience_retry_hits_total", true)+
			r.delta("resilience_word_hits_total", true)+r.delta("resilience_full_hits_total", true),
			r.delta("resilience_dues_total", true)), uint64(r.delta("resilience_dues_total", true))},

		"cluster.conn_calls_per_op": perOp(float64(span(layerConn))),
		"cluster.hedge_waste_ratio": {ratio(r.clusterDelta("cluster_hedge_wasted_total"), r.clusterDelta("cluster_hedges_total")),
			uint64(r.clusterDelta("cluster_hedges_total"))},
		"cluster.retries_per_kop": perOp(1e3 * r.clusterDelta("cluster_retries_total")),

		"trace.overhead_ratio": {overhead, r.ops},
	}
	if clustered {
		client := &t.layers[layerClient]
		m["cluster.call_us"] = measured{client.meanUs(), span(layerClient)}
		m["cluster.self_us"] = measured{ratio(float64(t.clusterSelfNs.Load()), float64(client.calls.Load())) / 1e3, span(layerClient)}
	} else {
		m["cluster.call_us"] = measured{0, 0}
		m["cluster.self_us"] = measured{0, 0}
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spread printed here matches one recomputed from the printed
// runs with Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// metricsJSON renders the result line's metrics object.
func metricsJSON(defs []metricDef, m map[string]measured) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": m[d.name].value, "unit": d.unit}
	}
	return out
}
