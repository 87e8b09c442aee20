package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newWFE(t *testing.T, threads int, cfg reclaim.Config) (*WFE, *mem.Arena) {
	t.Helper()
	cfg.MaxThreads = threads
	a := mem.New(mem.Config{Capacity: 1 << 14, MaxThreads: threads, Debug: true})
	return New(a, cfg), a
}

func TestLinearAndSortedCleanupAgreeEndToEnd(t *testing.T) {
	// The same deterministic single-threaded churn — tid 0 allocating and
	// retiring against roots that tid 1 protects and clears on a fixed
	// schedule — must leave identical retire-list backlogs whichever scan
	// implementation cleanup uses.
	run := func(linear bool) int {
		cutoff := 1 // sort every non-empty snapshot
		if linear {
			cutoff = math.MaxInt // never sort: the linear reference sweep
		}
		w, _ := newWFE(t, 2, reclaim.Config{EraFreq: 2, CleanupFreq: 3, SortCutoff: cutoff})
		var roots [4]atomic.Uint64
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 400; i++ {
			h := reclaim.MustAlloc(w, 0)
			roots[i%4].Store(h)
			if i%7 == 0 {
				w.GetProtected(1, &roots[rng.Intn(4)], rng.Intn(4), 0)
			}
			if i%13 == 0 {
				w.Clear(1)
			}
			w.Retire(0, h)
		}
		return w.Unreclaimed()
	}
	if lin, sorted := run(true), run(false); lin != sorted {
		t.Fatalf("backlog diverged: linear scan left %d, sorted scan %d", lin, sorted)
	}
}

func TestFastPathStableEra(t *testing.T) {
	w, _ := newWFE(t, 1, reclaim.Config{})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 0)
	root.Store(h)

	before := w.SlowPaths()
	for i := 0; i < 100; i++ {
		if got := w.GetProtected(0, &root, 0, 0); got != h {
			t.Fatalf("GetProtected = %d, want %d", got, h)
		}
	}
	if w.SlowPaths() != before {
		t.Fatal("fast path took the slow path with a stable era")
	}
	// The published reservation must cover the current era.
	if era := pack.EraTag(w.resv(0, 0).Load()).Era(); era != pack.Inf && era > w.Era() {
		t.Fatalf("reservation era %d beyond global era %d", era, w.Era())
	}
}

func TestSlowPathSelfCompletion(t *testing.T) {
	// With no concurrent era movement the forced slow path must cancel its
	// own request on the first iteration.
	w, _ := newWFE(t, 1, reclaim.Config{ForceSlowPath: true})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 0)
	root.Store(h)

	tagBefore := pack.EraTag(w.resv(0, 0).Load()).Tag()
	got := w.GetProtected(0, &root, 0, 0)
	if got != h {
		t.Fatalf("slow GetProtected = %d, want %d", got, h)
	}
	if w.SlowPaths() != 1 {
		t.Fatalf("slow paths = %d, want 1", w.SlowPaths())
	}
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != 1 || ce != 1 {
		t.Fatalf("counters start=%d end=%d, want 1/1", cs, ce)
	}
	rt := pack.EraTag(w.resv(0, 0).Load())
	if rt.Tag() != tagBefore+1 {
		t.Fatalf("tag = %d, want %d", rt.Tag(), tagBefore+1)
	}
	if rt.Era() == pack.Inf {
		t.Fatal("reservation does not protect the returned block")
	}
	if pack.ResPair(w.slot(0, 0).result.Load()).Pending() {
		t.Fatal("request still pending after completion")
	}
}

func TestTagAdvancesPerCycle(t *testing.T) {
	w, _ := newWFE(t, 1, reclaim.Config{ForceSlowPath: true})
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(w, 0))
	for i := uint64(1); i <= 5; i++ {
		w.GetProtected(0, &root, 0, 0)
		if tag := pack.EraTag(w.resv(0, 0).Load()).Tag(); tag != i {
			t.Fatalf("after cycle %d: tag = %d", i, tag)
		}
	}
}

// postRequest publishes a slow-path request exactly as getProtectedSlow
// does (including the dirty-index bump GetProtected performs), letting
// tests exercise helpThread deterministically.
func postRequest(w *WFE, tid, index int, src *atomic.Uint64, parentEra uint64) uint64 {
	if index >= w.threads[tid].dirty {
		w.threads[tid].dirty = index + 1
	}
	w.counterStart.Add(1)
	st := w.slot(tid, index)
	st.pointer.Store(src)
	st.era.Store(parentEra)
	tag := pack.EraTag(w.resv(tid, index).Load()).Tag()
	st.result.Store(uint64(pack.MakeRes(pack.InvPtr, tag)))
	return tag
}

func TestHelpThreadProducesResult(t *testing.T) {
	w, _ := newWFE(t, 2, reclaim.Config{})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 1)
	root.Store(h)

	tag := postRequest(w, 0, 0, &root, pack.Inf)
	w.helpThread(0, 0, 1)

	res := pack.ResPair(w.slot(0, 0).result.Load())
	if res.Pending() {
		t.Fatal("helper did not produce a result")
	}
	if res.Ptr() != h {
		t.Fatalf("helper produced %d, want %d", res.Ptr(), h)
	}
	rt := pack.EraTag(w.resv(0, 0).Load())
	if rt.Tag() != tag+1 {
		t.Fatalf("helper left tag %d, want %d", rt.Tag(), tag+1)
	}
	if rt.Era() != res.Val() {
		t.Fatalf("reservation era %d != result era %d", rt.Era(), res.Val())
	}
	// Special reservations must be released.
	for _, j := range []int{w.cfg.MaxHEs, w.cfg.MaxHEs + 1} {
		if era := pack.EraTag(w.resv(1, j).Load()).Era(); era != pack.Inf {
			t.Fatalf("special reservation %d still holds era %d", j, era)
		}
	}
	w.counterEnd.Add(1) // balance for the posted request
}

func TestHelpThreadStaleTagExits(t *testing.T) {
	w, _ := newWFE(t, 2, reclaim.Config{})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 1)
	root.Store(h)

	postRequest(w, 0, 0, &root, pack.Inf)
	// Simulate the owner having already completed this cycle: bump the tag.
	cur := pack.EraTag(w.resv(0, 0).Load())
	w.resv(0, 0).Store(uint64(pack.MakeEraTag(cur.Era(), cur.Tag()+1)))

	st := w.slot(0, 0)
	before := st.result.Load()
	w.helpThread(0, 0, 1)
	if st.result.Load() != before {
		t.Fatal("helper acted on a stale cycle")
	}
	for _, j := range []int{w.cfg.MaxHEs, w.cfg.MaxHEs + 1} {
		if era := pack.EraTag(w.resv(1, j).Load()).Era(); era != pack.Inf {
			t.Fatalf("special reservation %d leaked era %d", j, era)
		}
	}
	w.counterEnd.Add(1)
}

func TestIncrementEraHelpsPendingRequests(t *testing.T) {
	w, _ := newWFE(t, 2, reclaim.Config{})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 1)
	root.Store(h)

	postRequest(w, 0, 0, &root, pack.Inf)
	eraBefore := w.Era()
	w.incrementEra(1)
	if w.Era() != eraBefore+1 {
		t.Fatalf("era = %d, want %d", w.Era(), eraBefore+1)
	}
	if pack.ResPair(w.slot(0, 0).result.Load()).Pending() {
		t.Fatal("incrementEra advanced the era without helping the pending request")
	}
	w.counterEnd.Add(1)
}

func TestParentProtectedDuringHelp(t *testing.T) {
	// Lemma 4: while a helper dereferences a location inside a parent
	// block, the parent's alloc era sits in the helper's first special
	// reservation, so cleanup refuses to free it.
	w, a := newWFE(t, 2, reclaim.Config{CleanupFreq: 1, EraFreq: 1})

	parent := reclaim.MustAlloc(w, 1)
	child := reclaim.MustAlloc(w, 1)
	a.StoreWord(parent, 0, child)
	parentEra := a.AllocEra(parent)

	// Thread 0 requests help reading parent.word0.
	postRequest(w, 0, 0, a.WordAddr(parent, 0), parentEra)

	// Manually occupy thread 1's special reservation as helpThread would
	// mid-flight, and stage the retired parent directly (rt.Add skips the
	// retire cadence, so Retire's own incrementEra cannot help — and
	// thereby complete — the posted request).
	w.resv(1, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(parentEra, 0)))
	w.arena.SetRetireEra(parent, w.era.Load())
	w.rt.Add(1, parent)

	w.rt.Scan(1)
	if !a.Live(parent) {
		t.Fatal("parent freed while covered by a special reservation")
	}

	// Release the special reservation and resolve the request as the owner
	// would (result consumed, counters balanced, reservation cleared).
	w.resv(1, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(pack.Inf, 0)))
	w.counterEnd.Add(1)
	w.slot(0, 0).result.Store(uint64(pack.MakeRes(0, pack.Inf)))
	w.Clear(0)
	w.rt.Scan(1)
	if a.Live(parent) {
		t.Fatal("parent not freed after special reservation released")
	}
}

func TestCleanupGateWhileSlowPathInFlight(t *testing.T) {
	// With a slow path in flight (counterStart != counterEnd) and a normal
	// reservation covering the block, cleanup must keep the block.
	w, a := newWFE(t, 2, reclaim.Config{CleanupFreq: 1, EraFreq: 1})

	blk := reclaim.MustAlloc(w, 1)
	blkEra := a.AllocEra(blk)
	var root atomic.Uint64
	root.Store(blk)

	// Thread 0 holds a normal reservation covering blk's lifespan (set as
	// GetProtected would, including the dirty-index bump Clear relies on).
	w.threads[0].dirty = 1
	w.resv(0, 0).Store(uint64(pack.MakeEraTag(blkEra, 0)))

	w.Retire(1, blk)
	w.rt.Scan(1)
	if !a.Live(blk) {
		t.Fatal("reserved block freed")
	}

	w.Clear(0)
	w.rt.Scan(1)
	if a.Live(blk) {
		t.Fatal("block survived cleanup with no reservations")
	}
}

func TestClearPreservesTags(t *testing.T) {
	w, _ := newWFE(t, 1, reclaim.Config{ForceSlowPath: true})
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(w, 0))
	w.GetProtected(0, &root, 0, 0)
	tag := pack.EraTag(w.resv(0, 0).Load()).Tag()
	w.Clear(0)
	rt := pack.EraTag(w.resv(0, 0).Load())
	if rt.Era() != pack.Inf {
		t.Fatal("Clear did not reset the era")
	}
	if rt.Tag() != tag {
		t.Fatalf("Clear changed the tag: %d -> %d", tag, rt.Tag())
	}
}

func TestCountersBalanceUnderConcurrency(t *testing.T) {
	const workers = 4
	w, a := newWFE(t, workers, reclaim.Config{EraFreq: 2, CleanupFreq: 2, MaxAttempts: 2})
	// keys is indexed by handle and written with plain stores before each
	// publish, so the race detector flags a block recycled under a reader.
	keys := make([]uint64, a.Capacity()+1)
	var roots [8]atomic.Uint64
	for i := range roots {
		h := reclaim.MustAlloc(w, 0)
		keys[h] = h
		roots[i].Store(h)
	}
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*0x9E3779B9 + 1
			for i := 0; i < 5000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				idx := int(rng % uint64(len(roots)))
				if rng&3 == 0 {
					n := reclaim.MustAlloc(w, tid)
					keys[n] = n
					old := roots[idx].Swap(n)
					if h := pack.Handle(old); h != 0 {
						w.Retire(tid, h)
					}
				} else {
					v := w.GetProtected(tid, &roots[idx], 0, 0)
					if h := pack.Handle(v); h != 0 && keys[h] != h {
						panic("corrupted read")
					}
				}
				w.Clear(tid)
			}
		}(tid)
	}
	wg.Wait()
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != ce {
		t.Fatalf("slow-path counters unbalanced: start=%d end=%d", cs, ce)
	}
}

func TestForcedSlowPathConcurrent(t *testing.T) {
	// The paper validates WFE by forcing the slow path under stress; do the
	// same with helping in the loop via constant era increments.
	const workers = 4
	w, a := newWFE(t, workers, reclaim.Config{
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
				if tid%2 == 0 { // readers: always slow path
					v := w.GetProtected(tid, &root, 0, 0)
					if h := pack.Handle(v); h != 0 && keys[h] != h {
						panic("corrupted read on slow path")
					}
					w.Clear(tid)
				} else { // writers: every alloc/retire moves the era + helps
					n := reclaim.MustAlloc(w, tid)
					keys[n] = n
					old := root.Swap(n)
					if h := pack.Handle(old); h != 0 {
						w.Retire(tid, h)
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != ce {
		t.Fatalf("counters unbalanced after forced-slow stress: %d/%d", cs, ce)
	}
	if w.SlowPaths() == 0 {
		t.Fatal("forced slow path never engaged")
	}
}

func TestUnreclaimedTracksRetireLists(t *testing.T) {
	w, _ := newWFE(t, 1, reclaim.Config{CleanupFreq: 1 << 30})
	// The very first Retire scans (counter starts at zero); warm it up so
	// the next ten retirements accumulate without a cleanup.
	w.Retire(0, reclaim.MustAlloc(w, 0))
	base := w.Unreclaimed()
	for i := 0; i < 10; i++ {
		w.Retire(0, reclaim.MustAlloc(w, 0))
	}
	if got := w.Unreclaimed(); got != base+10 {
		t.Fatalf("unreclaimed = %d, want %d", got, base+10)
	}
}

func TestStaleHelperReservationCASFailsAfterCycleEnds(t *testing.T) {
	// The packed {era, tag} word is the WCAS target that guards against
	// stale helpers: once the owner finishes a slow-path cycle (tag+1), a
	// helper still holding the old cycle's tag must not be able to install
	// a reservation.
	w, _ := newWFE(t, 2, reclaim.Config{ForceSlowPath: true})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, 0)
	root.Store(h)

	// Complete one slow-path cycle; reservation now carries tag 1.
	w.GetProtected(0, &root, 0, 0)
	cur := pack.EraTag(w.resv(0, 0).Load())
	if cur.Tag() != 1 {
		t.Fatalf("tag = %d after one cycle", cur.Tag())
	}

	// A stale helper from cycle tag=0 attempts the paper's line-123 CAS.
	staleOld := pack.MakeEraTag(cur.Era(), 0)
	if w.resv(0, 0).CompareAndSwap(uint64(staleOld), uint64(pack.MakeEraTag(99, 1))) {
		t.Fatal("stale helper CAS succeeded against a newer cycle")
	}
	if got := pack.EraTag(w.resv(0, 0).Load()); got != cur {
		t.Fatalf("reservation changed: %v -> %v", cur, got)
	}
}

func TestHelpThreadPointerRedirection(t *testing.T) {
	// The helper must read through the location captured in the request,
	// observing the latest value stored there.
	w, _ := newWFE(t, 2, reclaim.Config{})
	var loc atomic.Uint64
	first := reclaim.MustAlloc(w, 1)
	second := reclaim.MustAlloc(w, 1)
	loc.Store(first)

	postRequest(w, 0, 0, &loc, pack.Inf)
	loc.Store(second) // the hazardous location moves before help arrives
	w.helpThread(0, 0, 1)

	res := pack.ResPair(w.slot(0, 0).result.Load())
	if res.Pending() {
		t.Fatal("helper did not produce a result")
	}
	if res.Ptr() != second {
		t.Fatalf("helper produced %d, want the redirected value %d", res.Ptr(), second)
	}
	w.counterEnd.Add(1)
}

func TestSlowPathOnHigherIndex(t *testing.T) {
	// Reservation indices beyond 0 must work identically on the slow path
	// (state is per [thread][index]).
	w, a := newWFE(t, 1, reclaim.Config{ForceSlowPath: true, MaxHEs: 4})
	keys := make([]uint64, a.Capacity()+1)
	var roots [4]atomic.Uint64
	for i := range roots {
		h := reclaim.MustAlloc(w, 0)
		keys[h] = uint64(i)
		roots[i].Store(h)
	}
	for i := range roots {
		got := w.GetProtected(0, &roots[i], i, 0)
		if keys[pack.Handle(got)] != uint64(i) {
			t.Fatalf("index %d: wrong block", i)
		}
	}
	if cs, ce := w.counterStart.Load(), w.counterEnd.Load(); cs != ce || cs != 4 {
		t.Fatalf("counters %d/%d, want 4/4", cs, ce)
	}
	w.Clear(0)
	for i := range roots {
		if era := pack.EraTag(w.resv(0, i).Load()).Era(); era != pack.Inf {
			t.Fatalf("index %d not cleared", i)
		}
	}
}

func TestMaxStepsBoundedUnderStorm(t *testing.T) {
	// Quantified wait-freedom: with S concurrent era-advancing threads, no
	// GetProtected call may exceed MaxAttempts + (slow-path iterations
	// bounded by in-flight increments). We allow slack for increments that
	// were in flight at loop entry, but the bound must not scale with the
	// number of reads.
	const stormers = 3
	w, _ := newWFE(t, stormers+1, reclaim.Config{EraFreq: 1, CleanupFreq: 4, MaxAttempts: 4})
	var root atomic.Uint64
	h := reclaim.MustAlloc(w, stormers)
	root.Store(h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < stormers; s++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Retire(tid, reclaim.MustAlloc(w, tid))
			}
		}(s + 1)
	}
	for i := 0; i < 30000; i++ {
		if got := w.GetProtected(0, &root, 0, 0); got != h {
			t.Fatalf("read %d: got %d", i, got)
		}
		w.Clear(0)
	}
	close(stop)
	wg.Wait()

	// Lemma 1: the slow-path loop is bounded by the number of threads that
	// can be mid-increment; fast path adds MaxAttempts. A generous constant
	// covers increments already in flight when the loop starts.
	bound := uint64(4 + 4*(stormers+1) + 8)
	if got := w.MaxSteps(); got > bound {
		t.Fatalf("worst GetProtected took %d steps; wait-free bound ~%d", got, bound)
	}
}
