// Benchmarks regenerating the paper's figures as testing.B measurements:
// one benchmark group per figure, with one sub-benchmark per reclamation
// scheme at GOMAXPROCS workers, each on a pinned guard calling the public
// structures' Guarded methods. ns/op is the per-operation latency of the
// figure's workload; the derived Mops/s metric is reported alongside.
//
// These are the quick, b.N-driven counterparts of cmd/wfebench, which runs
// the full thread sweeps with the paper's timing methodology over the same
// structure adapters (bench.BuildPublicKV).
package wfe_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"wfe"
	"wfe/internal/bench"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

const (
	benchPrefill  = 50000
	benchKeyRange = 100000
)

var benchSchemes = []string{"WFE", "HE", "HP", "EBR", "2GEIBR", "Leak"}

func newBenchScheme(b *testing.B, name string, threads, capacity int) reclaim.Scheme {
	b.Helper()
	a := mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: false})
	s, err := schemes.New(name, a, reclaim.Config{MaxThreads: threads})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func newBenchDomain(b *testing.B, name string, threads, capacity int) *wfe.Domain[uint64] {
	b.Helper()
	kind, err := wfe.ParseScheme(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: kind, Capacity: capacity, MaxGuards: threads})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchKV runs the workload for b.N total operations across GOMAXPROCS
// workers over the named structure and scheme.
func benchKV(b *testing.B, dsName, schemeName string, w bench.Workload) {
	threads := runtime.GOMAXPROCS(0)
	capacity := 8*benchPrefill + threads*4096
	if schemeName == "Leak" {
		capacity = min(8*benchPrefill+b.N+threads*4096, 1<<23)
	}
	d := newBenchDomain(b, schemeName, threads, capacity)
	kv := bench.BuildPublicKV(dsName, d, benchKeyRange)
	if err := bench.Prefill(d, kv, dsName, benchPrefill, benchKeyRange); err != nil {
		b.Fatal(err)
	}

	var seeds atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := d.Pin()
		defer d.Unpin(g)
		rng := rand.New(rand.NewSource(seeds.Add(1)*99991 + 7))
		for pb.Next() {
			if err := w.Do(kv, g, rng.Intn(100), uint64(rng.Int63n(benchKeyRange))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
	b.ReportMetric(float64(d.Unreclaimed()), "unreclaimed")
}

func benchFigure(b *testing.B, dsName string, w bench.Workload) {
	for _, scheme := range benchSchemes {
		b.Run(scheme, func(b *testing.B) { benchKV(b, dsName, scheme, w) })
	}
}

// Figure 5a/5b: Kogan–Petrank wait-free queue (WFQueue), 50% insert / 50% delete.
func BenchmarkFig5aKPQueue(b *testing.B) { benchFigure(b, "wfqueue", bench.WriteHeavy) }

// Figure 5c/5d: CRTurn wait-free queue (TurnQueue), 50% insert / 50% delete.
func BenchmarkFig5cCRTurnQueue(b *testing.B) { benchFigure(b, "turnqueue", bench.WriteHeavy) }

// Figure 6: sorted linked list (one-bucket HashMap), 50% insert / 50% delete.
func BenchmarkFig6List(b *testing.B) { benchFigure(b, "list", bench.WriteHeavy) }

// Figure 7: hash map, 50% insert / 50% delete.
func BenchmarkFig7HashMap(b *testing.B) { benchFigure(b, "hashmap", bench.WriteHeavy) }

// Figure 8: Natarajan–Mittal BST (Tree), 50% insert / 50% delete.
func BenchmarkFig8BST(b *testing.B) { benchFigure(b, "tree", bench.WriteHeavy) }

// Figure 9: sorted linked list (one-bucket HashMap), 90% get / 10% put.
func BenchmarkFig9ListReadMostly(b *testing.B) { benchFigure(b, "list", bench.ReadMostly) }

// Figure 10: hash map, 90% get / 10% put.
func BenchmarkFig10HashMapReadMostly(b *testing.B) { benchFigure(b, "hashmap", bench.ReadMostly) }

// Figure 11: Natarajan–Mittal BST (Tree), 90% get / 10% put.
func BenchmarkFig11BSTReadMostly(b *testing.B) { benchFigure(b, "tree", bench.ReadMostly) }

// Ablation A1/A2 micro-benchmarks: the raw cost of one protected read on
// the fast path versus the forced slow path (paper §5's stress mode).
func BenchmarkGetProtectedFastPath(b *testing.B) { benchGetProtected(b, "WFE") }
func BenchmarkGetProtectedSlowPath(b *testing.B) { benchGetProtected(b, "WFE-slow") }
func BenchmarkGetProtectedHE(b *testing.B)       { benchGetProtected(b, "HE") }
func BenchmarkGetProtectedHP(b *testing.B)       { benchGetProtected(b, "HP") }

func benchGetProtected(b *testing.B, scheme string) {
	threads := runtime.GOMAXPROCS(0)
	smr := newBenchScheme(b, scheme, threads, 1024)
	var root atomic.Uint64
	root.Store(smr.Alloc(0))

	var tids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := int(tids.Add(1)-1) % threads
		for pb.Next() {
			smr.GetProtected(tid, &root, 0, 0)
			smr.Clear(tid)
		}
	})
}

// BenchmarkNewDomain measures a Domain's set-up up to its first block:
// NewDomain plus one allocation, at three capacities. The arena commits
// memory a chunk at a time as the bump allocator reaches it, so the cost
// should not grow with Capacity.
func BenchmarkNewDomain(b *testing.B) {
	for _, c := range []int{64, 4096, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: c})
				if err != nil {
					b.Fatal(err)
				}
				g := d.Guard()
				g.Alloc(1)
				g.Release()
			}
		})
	}
}

// BenchmarkGuardAlloc is the allocation layer's row, on one guard of a
// WFE Domain. fresh is one TryAlloc of a block the bump allocator hands
// out for the first time, the path every structure fill takes; once the
// bump region is spent the Domain is rebuilt with the timer stopped.
// recycled is a TryAlloc plus Dealloc pair, which hands the same block
// back and forth through the guard's free cache.
func BenchmarkGuardAlloc(b *testing.B) {
	const capacity = 1 << 16
	newGuard := func(b *testing.B) *wfe.Guard[uint64] {
		b.Helper()
		d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: capacity, MaxGuards: 1})
		if err != nil {
			b.Fatal(err)
		}
		return d.Guard()
	}
	b.Run("fresh", func(b *testing.B) {
		g := newGuard(b)
		left := capacity
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if left == 0 {
				b.StopTimer()
				g.Release()
				g, left = newGuard(b), capacity
				b.StartTimer()
			}
			if _, err := g.TryAlloc(1); err != nil {
				b.Fatal(err)
			}
			left--
		}
		b.StopTimer()
		g.Release()
	})
	b.Run("recycled", func(b *testing.B) {
		g := newGuard(b)
		defer g.Release()
		for b.Loop() {
			r, err := g.TryAlloc(1)
			if err != nil {
				b.Fatal(err)
			}
			g.Dealloc(r)
		}
	})
}

// Treiber stack sanity benchmark (the paper's usage example, Figure 2).
func BenchmarkStackPushPop(b *testing.B) {
	for _, scheme := range benchSchemes {
		b.Run(scheme, func(b *testing.B) {
			threads := runtime.GOMAXPROCS(0)
			capacity := 1 << 20
			if scheme == "Leak" && b.N+1024 > capacity {
				capacity = min(b.N+1<<16, 1<<24-2) // the Domain's handle limit
			}
			d := newBenchDomain(b, scheme, threads, capacity)
			st := wfe.NewStack[uint64](d)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := d.Pin()
				defer d.Unpin(g)
				for pb.Next() {
					if err := st.TryPushGuarded(g, 1); err != nil {
						b.Error(err)
						return
					}
					st.PopGuarded(g)
				}
			})
		})
	}
}
