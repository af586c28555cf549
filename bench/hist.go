package main

import (
	"math"
	"time"
)

// histLimitUs is the exact range of a latencyHist: every call up to
// 200 ms lands in its own 1 µs bucket, slower ones only in the overflow
// count.
const histLimitUs = 200_000

// latencyHist records call latencies exactly at 1 µs resolution. One
// histogram belongs to one goroutine; merge them after the goroutines
// have stopped.
type latencyHist struct {
	counts []uint32 // counts[i]: calls that took [i, i+1) µs
	over   uint64   // calls that took histLimitUs or longer
	n      uint64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint32, histLimitUs)}
}

func (h *latencyHist) add(d time.Duration) {
	h.n++
	us := d / time.Microsecond
	if us < 0 {
		us = 0
	}
	if us >= histLimitUs {
		h.over++
		return
	}
	h.counts[us]++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over += o.over
	h.n += o.n
}

// percentile returns the nearest-rank q-quantile in µs. The rank's
// bucket is exact; the value is placed inside the bucket by the rank's
// position among the bucket's samples, so repeated runs keep their
// sub-microsecond differences. ok is false when the histogram is empty
// (value 0) or the rank falls among the overflow (value histLimitUs,
// meaning "at least that").
func (h *latencyHist) percentile(q float64) (us float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var below uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+uint64(c) >= rank {
			return float64(i) + (float64(rank-below)-0.5)/float64(c), true
		}
		below += uint64(c)
	}
	return histLimitUs, false
}
