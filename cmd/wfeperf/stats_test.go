package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestHistogramQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h histogram
	vs := make([]int64, 200_000)
	for i := range vs {
		// Log-normal around ~500 ns with a long tail, like call latencies.
		vs[i] = int64(math.Exp(6.2 + 0.8*rng.NormFloat64()))
		h.add(vs[i])
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(vs[int(math.Ceil(q*float64(len(vs))))-1])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q%.3f = %.1f, exact %.1f (off by %.2f%%)", q, got, exact, 100*rel)
		}
	}
	if h.max != vs[len(vs)-1] || h.n != uint64(len(vs)) {
		t.Errorf("max %d n %d, want %d %d", h.max, h.n, vs[len(vs)-1], len(vs))
	}
}

func TestHistogramBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 123_456, 1 << 40} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("%d lands in [%v, %v)", v, lo, lo+w)
		}
		if v >= subBuckets && w/lo > 1.0/subBuckets {
			t.Errorf("%d: bucket width %v is over 1/%d of %v", v, w, subBuckets, lo)
		}
	}
}

// The expected values are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{1.0, 3.2}, 0.45, 2.1, 3.75},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.vs)
		for _, p := range [][2]float64{{q1, c.q1}, {med, c.med}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, med, q3, c.q1, c.med, c.q3)
				break
			}
		}
	}
}
