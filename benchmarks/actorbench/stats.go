package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between ranks, so a reported time moves continuously between runs instead
// of in the ≈3 % steps of a histogram bucket. Zero when empty.
func quantile[T int64 | uint32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latLog records one goroutine's op latencies in completion order, cut into
// wall-clock windows of winLen, so both whole-run and per-window percentiles
// can be taken afterwards without touching the timed loop.
type latLog struct {
	start  time.Time
	winLen time.Duration
	ns     []uint32 // op latency, nanoseconds (saturates at ~4.29 s)
	cuts   []int    // cuts[w] is the index in ns of the first op completing in window w+1
}

func newLatLog(start time.Time, winLen time.Duration, capHint int) *latLog {
	return &latLog{start: start, winLen: winLen, ns: make([]uint32, 0, capHint)}
}

// add records an op that took lat and completed at done.
func (l *latLog) add(lat time.Duration, done time.Time) {
	for w := int(done.Sub(l.start) / l.winLen); len(l.cuts) < w; {
		l.cuts = append(l.cuts, len(l.ns))
	}
	l.ns = append(l.ns, uint32(min(lat, math.MaxUint32)))
}

// window returns the latencies of the ops that completed in window w.
func (l *latLog) window(w int) []uint32 {
	lo, hi := 0, len(l.ns)
	if w > 0 {
		if w-1 >= len(l.cuts) {
			return nil
		}
		lo = l.cuts[w-1]
	}
	if w < len(l.cuts) {
		hi = l.cuts[w]
	}
	return l.ns[lo:hi]
}

// windows merges the per-goroutine logs into per-window samples.
func windows(logs []*latLog) [][]uint32 {
	n := 0
	for _, l := range logs {
		n = max(n, len(l.cuts)+1)
	}
	out := make([][]uint32, n)
	for w := range out {
		for _, l := range logs {
			out[w] = append(out[w], l.window(w)...)
		}
	}
	return out
}

// latSummary is what a run reports about op latency.
type latSummary struct {
	n         int      // samples
	p50us     float64  // median over all samples
	p99us     float64  // median over windows of the per-window p99
	windows   int      // windows that held at least one op
	perWindow float64  // median sample count per window
	sorted    []uint32 // all samples
}

// summarize reduces windows of latency samples. The median is over every
// sample. The tail estimate is the median over the first full windows of each
// window's p99: one stalled window (a GC cycle, a host hiccup) moves a
// whole-run p99 but not the median of ten window p99s. Windows past full hold
// the few ops that finished after the deadline, a sliver with no tail worth
// the name.
func summarize(wins [][]uint32, full int) latSummary {
	var s latSummary
	var p99s, counts []float64
	for i, w := range wins {
		s.sorted = append(s.sorted, w...)
		if len(w) == 0 || i >= full {
			continue
		}
		slices.Sort(w)
		p99s = append(p99s, quantile(w, 0.99)/1e3)
		counts = append(counts, float64(len(w)))
	}
	slices.Sort(s.sorted)
	s.n = len(s.sorted)
	s.p50us = quantile(s.sorted, 0.5) / 1e3
	s.windows = len(p99s)
	s.p99us = median(p99s)
	s.perWindow = median(counts)
	return s
}

// fullWindows is how many whole one-second windows fit in d, at least one.
func fullWindows(d time.Duration) int { return max(1, int(d/time.Second)) }
