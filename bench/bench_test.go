package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"twodcache"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, with verification on.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := run(runConfig{wl: wl, seed: 1, warmup: 20 * time.Millisecond, measure: 150 * time.Millisecond, setups: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if r.ops == 0 || r.silent != 0 || r.failed != 0 {
				t.Fatalf("%s traced=%v: %d ops, %d silent, %d failed", wl.name, traced, r.ops, r.silent, r.failed)
			}
			m := endToEndMetrics(r)
			defs := slices.Concat(unlisted, endToEnd)
			if traced {
				m, defs = layerMetrics(r, wl.replicas > 1, 1), perLayer
				if err := checkNesting(r.tracer.recorded()); err != nil {
					t.Fatalf("%s: %v", wl.name, err)
				}
			}
			for _, d := range defs {
				v, ok := m[d.name]
				if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
					t.Fatalf("%s: metric %s = %v (present %v)", wl.name, d.name, v.value, ok)
				}
			}
		}
	}
}

// TestVerifierFlagsCorruptBackingLine corrupts the backing store's only
// copy of a line behind the cache's back: the read that fetches it must
// be reported as silent corruption, since no loss epoch moved.
func TestVerifierFlagsCorruptBackingLine(t *testing.T) {
	st, ws, err := setUp(mustWorkload(t, "cold-batch"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w, rep := ws[0], st.replicas[0]
	ctx := context.Background()

	// A clean line reads back as written.
	got, err := w.cl.ReadCtx(ctx, w.addr(5), lineBytes)
	w.read(5, got, err)
	if w.silent != 0 {
		t.Fatalf("clean line flagged: %d silent", w.silent)
	}

	// Prefill wrote the lines in order, 32 to a set of 4 ways, so line 0
	// was evicted long ago and the backing holds its only copy.
	bad := append([]byte(nil), w.line(0)...)
	bad[7] ^= 0x10
	rep.backing.WriteLine(w.addr(0), bad)
	misses := rep.store.Stats().Misses
	got, err = w.cl.ReadCtx(ctx, w.addr(0), lineBytes)
	if rep.store.Stats().Misses == misses {
		t.Fatal("line 0 was resident: the corruption never reached the read")
	}
	w.read(0, got, err)
	if w.silent != 1 || w.accounted != 0 {
		t.Fatalf("corrupt line: %d silent, %d accounted; want 1, 0", w.silent, w.accounted)
	}
}

// opStream drives one seeded mix of single and batch reads and writes
// through a stack, from one goroutine, and returns every byte read and,
// after the shutdown flush, every replica's backing bytes for the
// working set.
func opStream(t *testing.T, wl workload, tr *tracer) (reads []byte, backing [][]byte) {
	t.Helper()
	st, ws, err := setUp(wl, 11, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.on.Store(true)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		w := ws[rng.Intn(numWorkers)]
		k := 1 + rng.Intn(4)
		ops := make([]twodcache.BatchWriteOp, k)
		rops := make([]twodcache.BatchReadOp, k)
		for j := range ops {
			addr := w.addr(rng.Intn(w.n))
			data := make([]byte, lineBytes)
			rng.Read(data)
			ops[j] = twodcache.BatchWriteOp{Addr: addr, Data: data}
			rops[j] = twodcache.BatchReadOp{Addr: addr, Dst: make([]byte, lineBytes)}
		}
		switch rng.Intn(4) {
		case 0:
			if err := w.cl.WriteCtx(ctx, ops[0].Addr, ops[0].Data); err != nil {
				t.Fatal(err)
			}
		case 1:
			if n, err := w.cl.WriteBatchCtx(ctx, ops); n != 0 || err != nil {
				t.Fatal(n, err)
			}
		case 2:
			got, err := w.cl.ReadCtx(ctx, rops[0].Addr, lineBytes)
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, got...)
		default:
			if n, err := w.cl.ReadBatchCtx(ctx, rops); n != 0 || err != nil {
				t.Fatal(n, err)
			}
			for _, op := range rops {
				reads = append(reads, op.Dst...)
			}
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range st.replicas {
		var b []byte
		for l := 0; l < wl.lines; l++ {
			b = append(b, r.backing.ReadLine(uint64(l)*lineBytes)...)
		}
		backing = append(backing, b)
	}
	return reads, backing
}

// TestTracingIsTransparent: the decorators change no byte a client
// reads or the backing store ends up holding, for 1 and 4 shards and
// through the cluster.
func TestTracingIsTransparent(t *testing.T) {
	for _, name := range []string{"hot-single", "cold-batch", "cluster-hot"} {
		wl := mustWorkload(t, name)
		plainReads, plainBacking := opStream(t, wl, nil)
		tracedReads, tracedBacking := opStream(t, wl, newTracer())
		if !bytes.Equal(plainReads, tracedReads) {
			t.Errorf("%s: reads differ between the untraced and traced stacks", name)
		}
		for i := range plainBacking {
			if !bytes.Equal(plainBacking[i], tracedBacking[i]) {
				t.Errorf("%s: replica %d backing differs after flush", name, i)
			}
		}
	}
}

// TestLateChildKeepsItsRealDuration: a conn call that outlives its
// client call (a cancelled hedge) counts in full in the layer sums and is
// clipped only in the copy kept for the spans file.
func TestLateChildKeepsItsRealDuration(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	parent, ctx := tr.beginParent(context.Background(), spanClientRead, 1)
	child := tr.begin(ctx, spanConnRead, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(parent)
	time.Sleep(5 * time.Millisecond)
	tr.end(child)

	spans := tr.recorded()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	p, c := spans[0], spans[1]
	if c.parent != p.id || c.end != p.end || tr.clippedSpans.Load() != 1 {
		t.Fatalf("spans file: parent %+v, child %+v, %d clipped; want the child clipped to the parent's end", p, c, tr.clippedSpans.Load())
	}
	if conn := tr.layers[layerConn].ns.Load(); conn < int64(7*time.Millisecond) {
		t.Fatalf("conn layer sums %v, want the child's full 7 ms or more", time.Duration(conn))
	}
	if self := tr.clusterSelfNs.Load(); self < 0 || self > int64(time.Millisecond) {
		t.Fatalf("cluster self time %v: the child covered the whole parent", time.Duration(self))
	}
}

// TestRepeatReadsEveryPrintedDigit: -repeat reads back exactly the
// values a run printed, for every end-to-end metric.
func TestRepeatReadsEveryPrintedDigit(t *testing.T) {
	defs := slices.Concat(unlisted, endToEnd)
	m := map[string]measured{}
	for i, d := range defs {
		m[d.name] = measured{value: math.Pi * math.Pow(10, float64(i-5)), n: uint64(i)}
	}
	var out bytes.Buffer
	out.WriteString("bench: a line that is not a metric\n")
	printMetrics(&out, defs, m)
	got := metricLines(bytes.Split(out.Bytes(), []byte("\n")))
	if len(got) != len(defs) {
		t.Fatalf("read %d metrics, printed %d", len(got), len(defs))
	}
	for _, d := range defs {
		if got[d.name] != m[d.name].value {
			t.Errorf("%s: read %v, printed %v", d.name, got[d.name], m[d.name].value)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables
// and the repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q (%s) in the program", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			e := got[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || (e.Bound != nil) != bounded ||
				(bounded && *e.Bound != d.jsonBound()) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, e, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
