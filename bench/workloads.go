package main

import (
	"fmt"
	"strings"
)

// Geometry shared by every workload: the cachenetd defaults, so one
// shard holds Sets×Ways = 256 lines.
const (
	sets       = 64
	ways       = 4
	banks      = 8
	lineBytes  = 64
	spareRows  = 8
	conns      = 2 // client connections; the cluster opens one per replica
	pipeline   = 4 // calls in flight per connection, one per worker
	numWorkers = conns * pipeline
	frameOps   = 32 // ops per batch frame
)

// workload is one traffic mix. Every field is a property of the
// generated input or of the stack it runs against; the run length and
// seed come from the command line.
type workload struct {
	name       string
	shards     int
	lines      int     // working set; workers own disjoint equal slices
	batch      int     // ops per client call: 1 = single-op frames
	writeFrac  float64 // share of calls that write
	silentFrac float64 // share of writes that rewrite the line's current value
	stormEvery int     // inject one fault event per this many completed ops (0 = none)
	replicas   int     // >1 drives a cluster client over that many in-process replicas
	why        string
}

var workloads = []workload{
	{
		name: "hot-single", shards: 1, lines: 192, batch: 1, writeFrac: 0.3, replicas: 1,
		why: "single-op frames over 192 lines that fit the 256-line cache: every access hits, so the wire and netsrv's re-batching of pipelined singles dominate",
	},
	{
		name: "cold-batch", shards: 4, lines: 8192, batch: frameOps, writeFrac: 0.5, silentFrac: 0.3, replicas: 1,
		why: "32-op frames over 8x the 1024-line capacity, half writes, 30% of them silent: shard routing, miss/fill/writeback, backing and 2D parity writes dominate",
	},
	{
		name: "storm-hot", shards: 1, lines: 192, batch: 1, writeFrac: 0.3, stormEvery: 64, replicas: 1,
		why: "hot-single plus one clean-word-gated fault event per 64 completed ops: transparent 2D recovery runs at a rate tied to work done",
	},
	{
		name: "cluster-hot", shards: 1, lines: 192, batch: 1, writeFrac: 0.3, replicas: 2,
		why: "hot-single through a hedged cluster client over two replicas: the only workload where write fan-out, hedges and stripe locks do work",
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
