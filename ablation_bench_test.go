// The paper's ablations (§5) as sub-benchmarks of the figure harness
// (benchKV in bench_test.go): each sweeps one parameter or variant over a
// figure's structure and mix at GOMAXPROCS workers, which -cpu sets.
// BenchmarkScan times the cleanup scan alone.
package wfe_test

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"wfe"
	"wfe/internal/bench"
	"wfe/internal/core"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// BenchmarkAblationAttempts sweeps WFE's fast-path attempt budget
// (default 16) on Figure 7: fewer attempts push more protected reads onto
// the slow path, which slow/Mop counts.
func BenchmarkAblationAttempts(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		b.Run(fmt.Sprintf("attempts=%d", n), func(b *testing.B) {
			benchKV(b, kvBench{ds: "hashmap", scheme: "WFE", w: bench.WriteHeavy,
				tune: func(o *wfe.Options) { o.MaxAttempts = n }})
		})
	}
}

// BenchmarkAblationSlowPath compares WFE against its forced slow path,
// the paper's stress validation (§5), on Figures 5a, 5c, 6, 7 and 8.
func BenchmarkAblationSlowPath(b *testing.B) {
	for _, ds := range []string{"wfqueue", "turnqueue", "list", "hashmap", "tree"} {
		for _, scheme := range []string{"WFE", "WFE-slow"} {
			b.Run(ds+"/"+scheme, func(b *testing.B) {
				benchKV(b, kvBench{ds: ds, scheme: scheme, w: bench.WriteHeavy})
			})
		}
	}
}

// BenchmarkAblationEraFreq sweeps ν, the era-increment frequency (default
// 150), for WFE and HE on Figure 7: a lower ν advances the clock more
// often, for faster reclamation at the price of more clock contention and
// more fast-path retries.
func BenchmarkAblationEraFreq(b *testing.B) {
	for _, nu := range []int{10, 50, 150, 500, 2000} {
		for _, scheme := range []string{"WFE", "HE"} {
			b.Run(fmt.Sprintf("nu=%d/%s", nu, scheme), func(b *testing.B) {
				benchKV(b, kvBench{ds: "hashmap", scheme: scheme, w: bench.WriteHeavy,
					tune: func(o *wfe.Options) { o.EraFreq = nu }})
			})
		}
	}
}

// BenchmarkAblationStall is the paper's robustness argument on Figure 7:
// one reader stalls mid-operation on an extra guard while the workers
// churn. EBR's unreclaimed count grows with the run; the bounded schemes
// stay flat.
func BenchmarkAblationStall(b *testing.B) {
	for _, scheme := range []string{"WFE", "HE", "HP", "EBR", "2GEIBR"} {
		b.Run(scheme, func(b *testing.B) {
			benchKV(b, kvBench{ds: "hashmap", scheme: scheme, w: bench.WriteHeavy, stalled: true})
		})
	}
}

// BenchmarkAblationWFEIBR measures the extension the paper sketches
// (§2.4), 2GEIBR made wait-free by the WFE construction, against plain
// 2GEIBR and WFE on the allocation-hot hash map (Figure 7) and the
// traversal-hot list (Figure 6).
func BenchmarkAblationWFEIBR(b *testing.B) {
	for _, ds := range []string{"hashmap", "list"} {
		for _, scheme := range []string{"2GEIBR", "WFE-IBR", "WFE"} {
			b.Run(ds+"/"+scheme, func(b *testing.B) {
				benchKV(b, kvBench{ds: ds, scheme: scheme, w: bench.WriteHeavy})
			})
		}
	}
}

// scanSchemes are the schemes whose cleanup can sort its reservation
// snapshot: HP always runs Michael's sorted scan, and EBR and Leak have no
// reservation scan.
var scanSchemes = []string{"WFE", "HE", "2GEIBR", "WFE-IBR"}

// scanCutoff is the SortCutoff of one scan-ablation arm: math.MaxInt keeps
// every scan on the linear reference sweep, 0 selects the default.
func scanCutoff(linear bool) int {
	if linear {
		return math.MaxInt
	}
	return 0
}

// BenchmarkAblationScan runs the sorted-snapshot cleanup against the
// linear reference sweep end to end, on the hash map in both mixes:
// read-mostly (Figure 10) for throughput and write-heavy (Figure 7) for
// dense cleanup traffic. It runs at least 16 workers, so the gathered
// reservation set can reach the sort cutoff (reclaim.DefaultSortCutoff);
// below it the sorted arm runs the linear sweep too.
func BenchmarkAblationScan(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	par := (16 + procs - 1) / procs
	for _, fig := range []struct {
		name string
		w    bench.Workload
	}{{"fig10", bench.ReadMostly}, {"fig7", bench.WriteHeavy}} {
		for _, scheme := range scanSchemes {
			for _, mode := range []string{"linear", "sorted"} {
				b.Run(fig.name+"/"+scheme+"/"+mode, func(b *testing.B) {
					benchKV(b, kvBench{ds: "hashmap", scheme: scheme, w: fig.w, par: par,
						tune: func(o *wfe.Options) { o.SortCutoff = scanCutoff(mode == "linear") }})
				})
			}
		}
	}
}

// BenchmarkScan times the cleanup scan under a controlled reservation
// population, which end-to-end runs cannot fix: 16 or 64 tids each
// publish a full reservation row (MaxHEs eras, or one interval), then one
// churner allocates and retires b.N blocks, so every CleanupFreq-th
// retire scans the backlog against them. ns/block is the scan time per
// examined block.
func BenchmarkScan(b *testing.B) {
	for _, threads := range []int{16, 64} {
		for _, scheme := range scanSchemes {
			for _, mode := range []string{"linear", "sorted"} {
				b.Run(fmt.Sprintf("threads=%d/%s/%s", threads, scheme, mode), func(b *testing.B) {
					benchScan(b, scheme, threads, mode == "linear")
				})
			}
		}
	}
}

func benchScan(b *testing.B, scheme string, threads int, linear bool) {
	const maxHEs = 8
	a := mem.New(mem.Config{Capacity: 1 << 16, MaxThreads: threads + 1})
	smr, err := core.New(scheme, a, reclaim.Config{
		MaxThreads: threads + 1,
		MaxHEs:     maxHEs,
		// The clock advances once per CleanupFreq-sized churn window, so
		// each scan examines a bounded protected backlog plus a majority
		// of freeable blocks, where the linear sweep cannot exit early and
		// visits every gathered reservation per block.
		EraFreq:     64,
		CleanupFreq: 64,
		MaxAttempts: 16,
		SortCutoff:  scanCutoff(linear),
	})
	if err != nil {
		b.Fatal(err)
	}
	churner := threads // tids 0..threads-1 hold the reservations
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(smr, churner))
	// Warm up past the count-0 era advances of TryAlloc and Retire, so the
	// reservations published next sit at the era the churned blocks are
	// stamped with and keep a backlog protected across the measured scans.
	for i := 0; i < 65; i++ {
		smr.Retire(churner, reclaim.MustAlloc(smr, churner))
	}
	for t := 0; t < threads; t++ {
		smr.Begin(t)
		for j := 0; j < maxHEs; j++ {
			smr.GetProtected(t, &root, j, 0)
		}
	}
	base := smr.Retirer().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smr.Retire(churner, reclaim.MustAlloc(smr, churner))
	}
	b.StopTimer()
	st := smr.Retirer().Stats()
	if blocks := st.Blocks - base.Blocks; blocks > 0 {
		b.ReportMetric(float64(st.Nanos-base.Nanos)/float64(blocks), "ns/block")
	}
}
