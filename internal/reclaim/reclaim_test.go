package reclaim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wfe/internal/pack"
)

func TestDefaults(t *testing.T) {
	d := Config{}.Defaults()
	if d.MaxThreads != 8 || d.MaxHEs != 8 || d.EraFreq != 150 ||
		d.CleanupFreq != 30 || d.MaxAttempts != 16 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if d.ForceSlowPath {
		t.Fatal("ForceSlowPath must default to false")
	}
	// Explicit values survive.
	c := Config{MaxThreads: 3, MaxHEs: 4, EraFreq: 5, CleanupFreq: 6, MaxAttempts: 7}.Defaults()
	if c.MaxThreads != 3 || c.MaxHEs != 4 || c.EraFreq != 5 || c.CleanupFreq != 6 || c.MaxAttempts != 7 {
		t.Fatalf("Defaults clobbered explicit values: %+v", c)
	}
}

func TestSearchHelpersMatchSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		s := make([]uint64, rng.Intn(40))
		for i := range s {
			s[i] = uint64(rng.Intn(50))
		}
		slices.Sort(s)
		for v := uint64(0); v < 52; v++ {
			wantGE := sort.Search(len(s), func(k int) bool { return s[k] >= v })
			wantGT := sort.Search(len(s), func(k int) bool { return s[k] > v })
			if got := searchGE(s, v); got != wantGE {
				t.Fatalf("searchGE(%v, %d) = %d, want %d", s, v, got, wantGE)
			}
			if got := searchGT(s, v); got != wantGT {
				t.Fatalf("searchGT(%v, %d) = %d, want %d", s, v, got, wantGT)
			}
		}
	}
}

func TestStepHistQuantile(t *testing.T) {
	var h StepHist
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 99 one-step calls and one ten-step call: p50 = 1, p99 = 1, p100 = 10.
	for i := 0; i < 99; i++ {
		h.Record(1)
	}
	h.Record(10)
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 = %d, want 1", got)
	}
	if got := h.Quantile(1.0); got != 10 {
		t.Fatalf("p100 = %d, want 10", got)
	}
	// The tail bucket collects everything past the histogram width.
	h.Record(1 << 40)
	if got := h.Quantile(1.0); got != StepHistBuckets-1 {
		t.Fatalf("overflow bucket = %d, want %d", got, StepHistBuckets-1)
	}
	// Merge accumulates.
	var m StepHist
	m.Merge(&h)
	m.Merge(&h)
	if got, want := m.Quantile(0.5), h.Quantile(0.5); got != want {
		t.Fatalf("merged p50 = %d, want %d", got, want)
	}
}

func TestStepHistMax(t *testing.T) {
	var h StepHist
	if h.Max() != 0 {
		t.Fatal("empty histogram must report Max 0")
	}
	h.Record(3)
	h.Record(1 << 40) // far past the bucket width: Max stays exact
	if h.Max() != 1<<40 {
		t.Fatalf("Max = %d, want %d", h.Max(), uint64(1)<<40)
	}
	var m StepHist
	m.Record(7)
	m.Merge(&h)
	if m.Max() != 1<<40 {
		t.Fatalf("merged Max = %d, want %d", m.Max(), uint64(1)<<40)
	}
}

// sealed returns a snapshot gathered by add and sealed for the linear
// sweep or for the sorted kernels.
func sealed(linear bool, add func(s *Snapshot)) *Snapshot {
	var s Snapshot
	add(&s)
	cutoff := 0 // sort every snapshot, the empty one included
	if linear {
		cutoff = math.MaxInt
	}
	s.seal(cutoff)
	return &s
}

func TestEraReservedBoundaries(t *testing.T) {
	cases := []struct {
		era  uint64
		want bool // free: the era misses the lifespan [10, 20]
	}{
		{9, true},   // before lifespan
		{10, false}, // at alloc era
		{15, false}, // inside
		{20, false}, // at retire era
		{21, true},  // after lifespan
	}
	for _, linear := range []bool{true, false} {
		for _, c := range cases {
			s := sealed(linear, func(s *Snapshot) { s.AddEra(c.era) })
			if got := !s.EraReserved(10, 20); got != c.want {
				t.Errorf("free(linear=%v) with reservation era %d = %v, want %v", linear, c.era, got, c.want)
			}
		}
		if sealed(linear, func(*Snapshot) {}).EraReserved(10, 20) {
			t.Errorf("linear=%v: reserved with no reservations", linear)
		}
	}
}

func TestIntervalReservedBoundaries(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   bool // free: the interval misses the lifespan [10, 20]
	}{
		{1, 9, true},    // interval entirely before birth
		{21, 30, true},  // entirely after retirement
		{1, 10, false},  // touches birth
		{20, 25, false}, // touches retirement
		{12, 15, false}, // nested inside
		{5, 30, false},  // covers the lifespan
	}
	for _, linear := range []bool{true, false} {
		for _, c := range cases {
			s := sealed(linear, func(s *Snapshot) { s.AddInterval(c.lo, c.hi) })
			if got := !s.IntervalReserved(10, 20); got != c.want {
				t.Errorf("free(linear=%v) vs interval [%d,%d] = %v, want %v", linear, c.lo, c.hi, got, c.want)
			}
		}
		if sealed(linear, func(*Snapshot) {}).IntervalReserved(10, 20) {
			t.Errorf("linear=%v: reserved with no intervals", linear)
		}
	}
}

// TestSortedScanMatchesLinearOracle checks each reservation shape's sorted
// kernel against its linear sweep, the retained oracle: on randomized
// reservation sets both reach exactly the same free/keep decision.
func TestSortedScanMatchesLinearOracle(t *testing.T) {
	t.Run("eras", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260729))
		for iter := 0; iter < 500; iter++ {
			eras := make([]uint64, rng.Intn(65))
			for i := range eras {
				eras[i] = uint64(rng.Intn(120)) + 1
			}
			sorted := slices.Clone(eras)
			slices.Sort(sorted)
			for b := 0; b < 32; b++ {
				lo := uint64(rng.Intn(120)) + 1
				hi := lo + uint64(rng.Intn(16))
				want := eraReservedLinear(eras, lo, hi)
				if got := reservedInRange(sorted, lo, hi); got != want {
					t.Fatalf("lifespan [%d,%d] vs eras %v: sorted=%v linear=%v",
						lo, hi, eras, got, want)
				}
			}
		}
	})
	t.Run("intervals", func(t *testing.T) {
		// Includes intervals left half-open at Inf by a racing Clear.
		rng := rand.New(rand.NewSource(20260729))
		for iter := 0; iter < 500; iter++ {
			n := rng.Intn(48)
			los := make([]uint64, n)
			his := make([]uint64, n)
			for i := range los {
				los[i] = uint64(rng.Intn(120)) + 1
				if rng.Intn(16) == 0 {
					his[i] = pack.Inf // gather raced a Begin/Clear hand-over
				} else {
					his[i] = los[i] + uint64(rng.Intn(20))
				}
			}
			sortedLos := slices.Clone(los)
			sortedHis := slices.Clone(his)
			slices.Sort(sortedLos)
			slices.Sort(sortedHis)
			for b := 0; b < 32; b++ {
				birth := uint64(rng.Intn(120)) + 1
				retire := birth + uint64(rng.Intn(16))
				want := intervalReservedLinear(los, his, birth, retire)
				if got := intervalsOverlap(sortedLos, sortedHis, birth, retire); got != want {
					t.Fatalf("lifespan [%d,%d] vs intervals (%v,%v): sorted=%v linear=%v",
						birth, retire, los, his, got, want)
				}
			}
		}
	})
}
