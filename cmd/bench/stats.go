package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sliceMedian is the median over a window's slices of a per-slice
// value, skipping slices that completed no op (NaN). One slice hit by a
// noisy neighbour therefore cannot move the reported value.
func sliceMedian(perSlice []float64) float64 {
	var ok []float64
	for _, v := range perSlice {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	return median(ok)
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the exclusive method),
// so -check and the driver agree on a spread. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / med)
}

// interval is a half-open time range.
type interval struct{ from, to time.Time }

// clip returns the part of iv that lies inside bounds.
func clip(iv, bounds interval) interval {
	if iv.from.Before(bounds.from) {
		iv.from = bounds.from
	}
	if iv.to.After(bounds.to) {
		iv.to = bounds.to
	}
	return iv
}

// unionLength is the total time covered by ivs, overlaps counted once.
func unionLength(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if !iv.to.After(iv.from) {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if open {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// selfTimes returns each span's self time keyed by span id: its
// duration minus the union of its children's intervals, each child
// clipped to the parent first. Asynchronous children that outlive
// their parent (a collector span under a request span) therefore never
// push a self time below zero, and overlapping children are not
// subtracted twice.
func selfTimes(spans []trace.SpanData) map[string]time.Duration {
	byID := make(map[string]*trace.SpanData, len(spans))
	for i := range spans {
		byID[spans[i].SpanID] = &spans[i]
	}
	children := make(map[string][]interval, len(spans))
	for i := range spans {
		sd := &spans[i]
		p := byID[sd.ParentID]
		if p == nil {
			continue
		}
		children[p.SpanID] = append(children[p.SpanID], clip(interval{sd.Start, sd.End}, interval{p.Start, p.End}))
	}
	out := make(map[string]time.Duration, len(spans))
	for i := range spans {
		sd := &spans[i]
		self := sd.End.Sub(sd.Start) - unionLength(children[sd.SpanID])
		if self < 0 {
			self = 0
		}
		out[sd.SpanID] = self
	}
	return out
}
