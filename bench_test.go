// Benchmarks regenerating the paper's evaluation (§5) as testing.B
// measurements: one benchmark per figure with one sub-benchmark per
// reclamation scheme, and one per ablation (ablation_bench_test.go, and
// BenchmarkBatch and BenchmarkGuardedOps beside them). Every worker runs
// on a pinned guard calling the public structures' Guarded methods. ns/op
// is the per-operation latency of the figure's workload. Each row also
// reports both of the paper's panels — Mops/s, and the unreclaimed blocks
// sampled every 2 ms (mean and max) — with WFE's slow paths per million
// operations and the cleanup scans' cost per examined block.
//
// go test's flags are the sweep: -cpu is the thread axis, and -benchtime
// 10s -count 5 the paper's methodology (10 s per point, five runs):
//
//	go test -run '^$' -bench Fig7HashMap -cpu 1,2,4 .
package wfe_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// kvBench is one row of a figure or ablation: a structure and mix under
// one scheme, plus what an ablation varies.
type kvBench struct {
	ds     string // a bench.BuildPublicKV structure
	scheme string // a legend name; "WFE-slow" and "WFE-IBR-slow" force the slow path
	w      bench.Workload
	// tune sets the ablation's swept parameters on the Domain's Options.
	tune func(*wfe.Options)
	// stalled parks a bench.StallReader on an extra guard for the run.
	stalled bool
	// par runs par×GOMAXPROCS workers (b.SetParallelism); 0 means 1.
	par int
}

// benchKV runs r's workload for b.N total operations across its workers
// after the paper's prefill of 50K keys from a range of 100K.
func benchKV(b *testing.B, r kvBench) {
	kind, forceSlow, err := bench.ParseScheme(r.scheme)
	if err != nil {
		b.Fatal(err)
	}
	par := max(r.par, 1)
	b.SetParallelism(par)
	threads := par * runtime.GOMAXPROCS(0)
	// The live set, at most two blocks (the tree's leaf and routing node)
	// per prefilled key, four times over, plus headroom for the retired
	// backlog: the epoch and interval schemes can spike it past 100K
	// blocks when a worker is descheduled mid-epoch. The Leak baseline
	// frees nothing, and behind a stalled reader EBR frees nothing retired
	// after the stall, so those arenas grow with b.N, up to 2^23 blocks
	// (512 MiB of slots); a full arena there ends the run and is reported
	// as exhausted.
	capacity := 8*benchPrefill + threads*4096 + 1<<18
	unbounded := kind == wfe.Leak || r.stalled
	if unbounded {
		capacity = min(capacity+2*b.N, 1<<23)
	}
	opts := wfe.Options{Scheme: kind, Capacity: capacity, MaxGuards: threads, ForceSlowPath: forceSlow}
	if r.stalled {
		opts.MaxGuards++
	}
	if r.tune != nil {
		r.tune(&opts)
	}
	d, err := wfe.NewDomain[uint64](opts)
	if err != nil {
		b.Fatal(err)
	}
	kv := bench.BuildPublicKV(r.ds, d, benchKeyRange)
	if err := bench.Prefill(d, kv, r.ds, benchPrefill, benchKeyRange); err != nil {
		b.Fatal(err)
	}

	var stop atomic.Bool
	var stalled sync.WaitGroup
	if r.stalled {
		parked := make(chan struct{})
		stalled.Add(1)
		go func() {
			defer stalled.Done()
			first := true
			bench.StallReader(d, func() bool {
				if first {
					first = false
					close(parked)
				}
				return stop.Load()
			})
		}()
		<-parked
	}
	// The paper's second panel: the retired-but-unfreed backlog, sampled
	// every 2 ms while the workers run.
	var sum, samples, peak int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			u := d.Unreclaimed()
			sum, samples, peak = sum+u, samples+1, max(peak, u)
		}
	}()

	// Prefill's scans and slow paths are not the measurement's.
	base := d.Telemetry()
	var seeds atomic.Int64
	var ops atomic.Uint64
	var full atomic.Int64 // ns from start to the first failed write
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		g := d.Pin()
		defer d.Unpin(g)
		rng := rand.New(rand.NewSource(seeds.Add(1)*99991 + 7))
		n := uint64(0)
		defer func() { ops.Add(n) }()
		for pb.Next() {
			if err := r.w.Do(kv, g, rng.Intn(100), uint64(rng.Int63n(benchKeyRange))); err != nil {
				if !unbounded || !errors.Is(err, wfe.ErrArenaExhausted) {
					b.Error(err)
				}
				full.CompareAndSwap(0, int64(time.Since(start)))
				for pb.Next() { // RunParallel fails a body that returns early
				}
				return
			}
			n++
		}
	})
	b.StopTimer()
	stop.Store(true)
	<-sampled
	stalled.Wait()

	tel := d.Telemetry()
	if samples == 0 { // a run shorter than one tick
		sum, samples, peak = tel.Unreclaimed, 1, tel.Unreclaimed
	}
	// ns/op counts the iterations drained after a full arena; Mops/s
	// counts only the operations done before it filled.
	elapsed := b.Elapsed()
	if t := full.Load(); t > 0 {
		elapsed = time.Duration(t)
		b.ReportMetric(1, "exhausted")
	}
	done := float64(ops.Load())
	b.ReportMetric(done/elapsed.Seconds()/1e6, "Mops/s")
	b.ReportMetric(float64(sum)/float64(samples), "unreclaimed-mean")
	b.ReportMetric(float64(peak), "unreclaimed-max")
	b.ReportMetric(float64(tel.SlowPaths-base.SlowPaths)/max(done, 1)*1e6, "slow/Mop")
	if blocks := tel.ScanBlocks - base.ScanBlocks; blocks > 0 {
		b.ReportMetric(float64(tel.ScanNanos-base.ScanNanos)/float64(blocks), "scan-ns/block")
	}
}

// benchFigure runs one paper figure: its structure and mix under every
// scheme.
func benchFigure(b *testing.B, ds string, w bench.Workload) {
	for _, scheme := range benchSchemes {
		b.Run(scheme, func(b *testing.B) { benchKV(b, kvBench{ds: ds, scheme: scheme, w: w}) })
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
	root.Store(reclaim.MustAlloc(smr, 0))

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
