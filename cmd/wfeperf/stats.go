package main

import (
	"math/bits"
	"sort"
)

// histogram is a log-linear latency histogram in nanoseconds: values
// below subBuckets are exact, larger ones fall into buckets 1/subBuckets
// of their power of two wide (under 1.6%). It is a fixed array, so
// recording allocates nothing.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	octaves    = 40 // covers ~18 minutes
)

type histogram struct {
	counts [(octaves + 1) * subBuckets]uint64
	n      uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	i := (e+1)*subBuckets + int(uint64(v)>>e) - subBuckets
	if i >= len(histogram{}.counts) {
		return len(histogram{}.counts) - 1
	}
	return i
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := i/subBuckets - 1
	m := i%subBuckets + subBuckets
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *histogram) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *histogram) reset() { *h = histogram{} }

// quantile returns the q-quantile, interpolated linearly inside its
// bucket so the estimate moves with the data instead of snapping to
// bucket edges.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quartiles returns Q1, median and Q3 of vs by the method Python's
// statistics.quantiles(vs, n=4) uses by default ("exclusive"), so the
// spreads this program prints match the ones computed from its output.
func quartiles(vs []float64) (q1, med, q3 float64) {
	switch len(vs) {
	case 0:
		return 0, 0, 0
	case 1:
		return vs[0], vs[0], vs[0]
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	var r [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		r[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return r[0], r[1], r[2]
}
