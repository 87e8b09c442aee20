package mem

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// BenchmarkFreeTail times Free one call at a time on a cross-thread
// stream: one goroutine allocates on tid 0 and frees on tid 1, so every
// block leaves tid 1's cache as part of a published segment and reaches
// tid 0 again through a refill. One op is 2^20 timed frees, and p50-ns
// and p99.99-ns are the last op's percentiles, so run it with
// -benchtime=1x. 2^20 untimed frees first bring the cache and mailboxes
// to their steady state; without them whichever size runs first reads a
// higher tail:
//
//	go test -run '^$' -bench FreeTail -benchtime=1x ./internal/mem/
//
// A free occasionally publishes a segment. That transfer is O(1), so the
// tail should not depend on SpillSize.
func BenchmarkFreeTail(b *testing.B) {
	const frees = 1 << 20
	for _, spill := range []int{2048, defaultSpillSize} {
		b.Run(fmt.Sprintf("spill=%d", spill), func(b *testing.B) {
			a := New(Config{Capacity: 1 << 16, MaxThreads: 2, SpillSize: spill})
			for range frees { // reach the steady state untimed
				a.Free(1, a.Alloc(0))
			}
			lat := make([]time.Duration, frees)
			for b.Loop() {
				for i := range lat {
					h := a.Alloc(0)
					start := time.Now()
					a.Free(1, h)
					lat[i] = time.Since(start)
				}
			}
			slices.Sort(lat)
			b.ReportMetric(float64(lat[frees/2]), "p50-ns")
			b.ReportMetric(float64(lat[frees-frees/10000-1]), "p99.99-ns")
		})
	}
}
