package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newWFEIBR(t *testing.T, threads int, cfg reclaim.Config) (*WFEIBR, *mem.Arena) {
	t.Helper()
	cfg.MaxThreads = threads
	a := mem.New(mem.Config{Capacity: 1 << 14, MaxThreads: threads, Debug: true})
	return NewWFEIBR(a, cfg), a
}

func TestWFEIBRSlowPathSelfCompletion(t *testing.T) {
	w, _ := newWFEIBR(t, 1, reclaim.Config{ForceSlowPath: true})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 0)
	root.Store(h)

	w.Begin(0)
	if got := w.GetProtected(0, &root, 0, 0); got != h {
		t.Fatalf("GetProtected = %d, want %d", got, h)
	}
	if w.SlowPaths() != 1 {
		t.Fatalf("slow paths = %d", w.SlowPaths())
	}
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != 1 || ce != 1 {
		t.Fatalf("counters %d/%d", cs, ce)
	}
	// The interval must cover the read.
	iv := w.interval(0, normal)
	if iv.upper.Load() == pack.Inf || iv.lower.Load() == pack.Inf {
		t.Fatal("interval closed right after a protected read")
	}
	w.Clear(0)
}

func TestHelperProducesResultAndRaisesUpper(t *testing.T) {
	w, _ := newWFEIBR(t, 2, reclaim.Config{})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 1)
	root.Store(h)

	// Post a request as the slow path would.
	w.Begin(0)
	iv := w.interval(0, normal)
	lower := iv.lower.Load()
	w.counterStart.Add(1)
	st := &w.slots[0]
	st.pointer.Store(&root)
	st.era.Store(pack.Inf)
	st.result.Store(uint64(pack.MakeRes(pack.InvPtr, 7)))

	w.helpThread(0, 1)

	res := pack.ResPair(st.result.Load())
	if res.Pending() {
		t.Fatal("helper did not produce a result")
	}
	if res.Ptr() != h {
		t.Fatalf("helper produced %d, want %d", res.Ptr(), h)
	}
	// Hand-over: requester's upper must cover the read era.
	if up := iv.upper.Load(); up < res.Val() {
		t.Fatalf("upper %d below result era %d", up, res.Val())
	}
	if lo := iv.lower.Load(); lo != lower {
		t.Fatal("helper moved the lower bound")
	}
	// The special interval must be released.
	if w.interval(1, special).lower.Load() != pack.Inf {
		t.Fatal("special interval leaked")
	}
	w.counterEnd.Add(1)
}

func TestIncrementEraHelps(t *testing.T) {
	w, _ := newWFEIBR(t, 2, reclaim.Config{})
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(w, 1))

	w.Begin(0)
	w.counterStart.Add(1)
	st := &w.slots[0]
	st.pointer.Store(&root)
	st.era.Store(pack.Inf)
	st.result.Store(uint64(pack.MakeRes(pack.InvPtr, 3)))

	before := w.Era()
	w.incrementEra(1)
	if w.Era() != before+1 {
		t.Fatal("era did not advance")
	}
	if pack.ResPair(st.result.Load()).Pending() {
		t.Fatal("pending request not helped before the era advance")
	}
	w.counterEnd.Add(1)
}

func TestRaiseUpperSkipsClosedIntervals(t *testing.T) {
	w, _ := newWFEIBR(t, 1, reclaim.Config{})
	iv := w.interval(0, normal)
	raiseUpper(iv.upper, 55) // closed: must stay closed
	if iv.upper.Load() != pack.Inf {
		t.Fatal("raise resurrected a closed interval")
	}
	w.Begin(0)
	cur := iv.upper.Load()
	raiseUpper(iv.upper, cur-0) // no-op raise
	raiseUpper(iv.upper, cur+9)
	if iv.upper.Load() != cur+9 {
		t.Fatalf("upper = %d, want %d", iv.upper.Load(), cur+9)
	}
	raiseUpper(iv.upper, cur+2) // lower than current: keep the max
	if iv.upper.Load() != cur+9 {
		t.Fatal("raise lowered the bound")
	}
}

func TestForcedSlowConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const workers = 4
	w, a := newWFEIBR(t, workers, reclaim.Config{
		ForceSlowPath: true, EraFreq: 1, CleanupFreq: 1,
	})
	// keys is indexed by handle and written with plain stores before each
	// publish, so the race detector flags a block recycled under a reader.
	keys := make([]uint64, a.Capacity()+1)
	var root atomic.Uint64
	h0 := reclaim.MustAlloc(w, 0)
	keys[h0] = h0
	root.Store(h0)

	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				w.Begin(tid)
				if tid%2 == 0 {
					v := w.GetProtected(tid, &root, 0, 0)
					if h := pack.Handle(v); h != 0 && keys[h] != h {
						panic("corrupted read on slow path")
					}
				} else {
					n := reclaim.MustAlloc(w, tid)
					keys[n] = n
					old := root.Swap(n)
					if h := pack.Handle(old); h != 0 {
						w.Retire(tid, h)
					}
				}
				w.Clear(tid)
			}
		}(tid)
	}
	wg.Wait()
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != ce {
		t.Fatalf("counters unbalanced: %d/%d", cs, ce)
	}
}
