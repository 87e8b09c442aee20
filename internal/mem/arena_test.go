package mem

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"wfe/internal/pack"
)

func newTestArena(capacity, threads int) *Arena {
	return New(Config{Capacity: capacity, MaxThreads: threads, Debug: true})
}

func TestAllocFreeReuse(t *testing.T) {
	a := newTestArena(16, 1)
	h1 := a.Alloc(0)
	if h1 == 0 {
		t.Fatal("nil handle from Alloc")
	}
	a.StoreWord(h1, 0, 42)
	if a.LoadWord(h1, 0) != 42 {
		t.Fatal("word lost")
	}
	v1 := a.Version(h1)
	a.SetRetireEra(h1, 1)
	a.Free(0, h1)
	h2 := a.Alloc(0)
	if h2 != h1 {
		t.Fatalf("expected slot reuse, got %d then %d", h1, h2)
	}
	if a.Version(h2) == v1 {
		t.Fatal("version not bumped on free")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic in debug mode")
		}
	}()
	a.Free(0, h)
}

func TestUseAfterFreePanics(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.StoreWord(h, 0, 7)
	a.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("use-after-free did not panic in debug mode")
		}
	}()
	a.LoadWord(h, 0)
}

func TestPoisonOnFree(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.StoreWord(h, 2, 12345)
	a.SetRetireEra(h, 1) // published: the retired→free path poisons
	a.Free(0, h)
	// Peek through the raw slot: the accessor would panic.
	if got := a.slot(h).words[2].Load(); got != poison {
		t.Fatalf("freed word = %#x, want poison", got)
	}
}

func TestFastFreeSkipsPoisonButDetectsDoubleFree(t *testing.T) {
	// A live→free block is the never-published constructor-undo path
	// (Guard.Dealloc): its payload was never visible to another goroutine,
	// so debug mode skips the NumWords poison stores — but the state
	// machine must still catch a double free of it.
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.StoreWord(h, 1, 42)
	a.Free(0, h)
	if got := a.slot(h).words[1].Load(); got != 42 {
		t.Fatalf("never-published free poisoned word: %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free after a fast free did not panic")
		}
	}()
	a.Free(0, h)
}

func TestExhaustionPanics(t *testing.T) {
	a := newTestArena(3, 1)
	for i := 0; i < 3; i++ {
		a.Alloc(0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted arena did not panic")
		}
	}()
	a.Alloc(0)
}

func TestRetireStateMachine(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.SetAllocEra(h, 5)
	a.SetRetireEra(h, 9)
	if a.AllocEra(h) != 5 || a.RetireEra(h) != 9 {
		t.Fatalf("eras: alloc=%d retire=%d", a.AllocEra(h), a.RetireEra(h))
	}
	if !a.Live(h) {
		t.Fatal("retired slot reported not live")
	}
	a.Free(0, h)
	if a.Live(h) {
		t.Fatal("freed slot reported live")
	}
	// Re-allocating must reset the retire era.
	h2 := a.Alloc(0)
	if a.RetireEra(h2) != 0 {
		t.Fatal("retire era not reset on reuse")
	}
}

func TestStats(t *testing.T) {
	a := newTestArena(16, 2)
	h := a.Alloc(0)
	a.Alloc(1)
	a.SetRetireEra(h, 1)
	a.Free(1, h)
	st := a.Stats()
	if st.Allocs != 2 || st.Frees != 1 || st.InUse != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCASWord(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.StoreWord(h, 0, 10)
	if a.CASWord(h, 0, 11, 12) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if !a.CASWord(h, 0, 10, 12) {
		t.Fatal("CAS with right expected failed")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const threads = 8
	const perThread = 5000
	a := New(Config{Capacity: threads * 64, MaxThreads: threads, Debug: true})
	// owner is written with plain stores by whichever goroutine holds
	// the handle, so the race detector flags a slot handed to two
	// threads at once.
	owner := make([]uint64, threads*64+1)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			live := make([]Handle, 0, 16)
			for i := 0; i < perThread; i++ {
				if len(live) == 16 {
					for _, h := range live {
						a.SetRetireEra(h, 1)
						a.Free(tid, h)
					}
					live = live[:0]
				}
				h := a.Alloc(tid)
				owner[h] = uint64(tid)
				live = append(live, h)
			}
			for _, h := range live {
				a.SetRetireEra(h, 1)
				a.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
	st := a.Stats()
	if st.InUse != 0 {
		t.Fatalf("leak: %d slots in use after balanced alloc/free", st.InUse)
	}
	if st.Allocs != threads*perThread {
		t.Fatalf("allocs = %d, want %d", st.Allocs, threads*perThread)
	}
}

func TestGlobalSpillBatched(t *testing.T) {
	// Free past 2×SpillSize on one thread: the cache must publish its
	// oldest SpillSize slots to its mailbox as one segment, which another
	// thread (empty cache, exhausted bump space) claims whole.
	const spill = 16
	capacity := 3 * spill
	a := New(Config{Capacity: capacity, MaxThreads: 2, Debug: true, SpillSize: spill})
	hs := make([]Handle, 0, capacity)
	for i := 0; i < capacity; i++ {
		hs = append(hs, a.Alloc(0))
	}
	for _, h := range hs {
		a.SetRetireEra(h, 1)
		a.Free(0, h)
	}
	st := a.Stats()
	if st.SegPushes != 1 || st.SegPops != 0 {
		t.Fatalf("segment transfers = %d pushes / %d pops, want 1/0", st.SegPushes, st.SegPops)
	}
	seen := make(map[Handle]bool)
	for i := 0; i < spill; i++ {
		h := a.Alloc(1)
		if seen[h] {
			t.Fatalf("slot %d handed out twice", h)
		}
		seen[h] = true
	}
	st = a.Stats()
	if st.SegPops != 1 {
		t.Fatalf("segment pops = %d after refill, want 1", st.SegPops)
	}
	if st.InUse != spill {
		t.Fatalf("in use = %d, want %d", st.InUse, spill)
	}
}

func TestCensusAccountsEverySlot(t *testing.T) {
	const spill = 8
	a := New(Config{Capacity: 64, MaxThreads: 2, Debug: true, SpillSize: spill})
	var live []Handle
	for i := 0; i < 40; i++ {
		live = append(live, a.Alloc(0))
	}
	for _, h := range live[8:] { // 32 frees: one spill segment + 24 cached
		a.SetRetireEra(h, 1)
		a.Free(0, h)
	}
	c := a.Census()
	if c.Cached != c.CachedLen {
		t.Fatalf("cache walk %d disagrees with length counters %d", c.Cached, c.CachedLen)
	}
	if c.Segments < 1 || c.Global != spill*c.Segments {
		t.Fatalf("global list = %d slots in %d segments, want %d per segment", c.Global, c.Segments, spill)
	}
	if c.Live != 8 {
		t.Fatalf("live = %d, want 8", c.Live)
	}
	if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
		t.Fatalf("census leak: %d cached + %d global + %d live + %d bump-free != capacity %d",
			c.Cached, c.Global, c.Live, c.BumpFree, c.Capacity)
	}
}

func TestCensusInvariantUnderChurn(t *testing.T) {
	// The arena accounting invariant under a cross-thread churn storm:
	// producers allocate and hand blocks to consumers over channels, so
	// frees land on foreign tids and drive the batched spill/refill paths
	// hard. Between rounds (quiescent barriers) every slot must be in
	// exactly one place.
	const (
		producers = 2
		consumers = 2
		rounds    = 4
		perRound  = 3000
	)
	a := New(Config{Capacity: 1 << 14, MaxThreads: producers + consumers, Debug: true, SpillSize: 32})
	for round := 0; round < rounds; round++ {
		ch := make(chan Handle, 256)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					h := a.Alloc(tid)
					a.SetRetireEra(h, 1)
					ch <- h
				}
			}(p)
		}
		var closeOnce sync.WaitGroup
		closeOnce.Add(1)
		go func() { defer closeOnce.Done(); wg.Wait(); close(ch) }()
		var cg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			cg.Add(1)
			go func(tid int) {
				defer cg.Done()
				for h := range ch {
					a.Free(tid, h)
				}
			}(producers + c)
		}
		closeOnce.Wait()
		cg.Wait()

		c := a.Census()
		if c.Cached != c.CachedLen {
			t.Fatalf("round %d: cache walk %d disagrees with length counters %d", round, c.Cached, c.CachedLen)
		}
		if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
			t.Fatalf("round %d: census leak: %d cached + %d global + %d live + %d bump-free = %d != capacity %d",
				round, c.Cached, c.Global, c.Live, c.BumpFree, got, c.Capacity)
		}
		if st := a.Stats(); uint64(c.Segments) != st.SegPushes-st.SegPops {
			t.Fatalf("round %d: %d segments published, want SegPushes-SegPops = %d-%d",
				round, c.Segments, st.SegPushes, st.SegPops)
		}
	}
	if st := a.Stats(); st.InUse != 0 || st.SegPushes == 0 {
		t.Fatalf("after churn: InUse=%d SegPushes=%d (want 0, >0)", st.InUse, st.SegPushes)
	}
}

func TestAllocFreeBalanceQuick(t *testing.T) {
	// Property: any interleaved sequence of allocs and frees keeps
	// InUse == Allocs - Frees and never hands out a live slot twice.
	f := func(ops []bool) bool {
		a := New(Config{Capacity: 1024, MaxThreads: 1, Debug: true})
		var live []Handle
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				if len(live) >= 1000 {
					continue
				}
				h := a.Alloc(0)
				for _, l := range live {
					if l == h {
						return false
					}
				}
				live = append(live, h)
			} else {
				h := live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(0, h)
			}
			st := a.Stats()
			if st.InUse != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 0, MaxThreads: 1},
		{Capacity: 1 << 25, MaxThreads: 1},
		{Capacity: 8, MaxThreads: 0},
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Errorf("config %+v did not panic", cfg)
		}()
	}
}

func TestVersionMonotonicAcrossReuse(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	var last uint32
	for i := 0; i < 50; i++ {
		v := a.Version(h)
		if i > 0 && v <= last {
			t.Fatalf("version did not advance across reuse: %d then %d", last, v)
		}
		last = v
		a.SetRetireEra(h, 1)
		a.Free(0, h)
		h2 := a.Alloc(0)
		if h2 != h {
			t.Fatalf("expected slot reuse, got %d", h2)
		}
	}
}

func TestConcurrentGlobalSpillStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Producers publish their frees to their mailboxes as whole segments
	// while consumers claim them; a segment handed out twice would be a
	// double allocation, which the debug state machine would catch.
	const (
		threads = 6
		spill   = 64
		batch   = 2*spill + 32 // enough to cross the 2×SpillSize trigger
	)
	a := New(Config{Capacity: 2 * threads * batch, MaxThreads: threads, Debug: true, SpillSize: spill})
	var wg sync.WaitGroup
	for t0 := 0; t0 < threads; t0++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]Handle, 0, batch)
			for round := 0; round < 8; round++ {
				for i := 0; i < batch; i++ {
					local = append(local, a.Alloc(tid))
				}
				for _, h := range local {
					a.Free(tid, h)
				}
				local = local[:0]
			}
		}(t0)
	}
	wg.Wait()
	if got := a.Stats().InUse; got != 0 {
		t.Fatalf("in use = %d after balanced stress", got)
	}
}

// TestSlotSize pins the slot layout: allocEra, retireEra, state, version,
// the payload words and nextFree, one 64-byte cache line. A published
// segment's link rides in retireEra, so it costs the slot no field. It
// also pins threadMem at two cache lines.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Fatalf("slot is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(threadMem{}); got != 128 {
		t.Fatalf("threadMem is %d bytes, want two 64-byte cache lines", got)
	}
}

// TestPressuredFreeSpillsSealedSegment checks the pressure path: while an
// allocation waits, a Free publishes its cache's sealed segment at once,
// so a thread with an empty cache and a spent bump region can allocate
// from it. Without a waiter the same Free keeps the segment private.
func TestPressuredFreeSpillsSealedSegment(t *testing.T) {
	const spill = 4
	a := New(Config{Capacity: 2 * spill, MaxThreads: 2, Debug: true, SpillSize: spill})
	hs := make([]Handle, 2*spill)
	for i := range hs {
		hs[i] = a.Alloc(0)
	}
	for _, h := range hs[:spill+1] { // seals spill blocks, one fills
		a.Free(0, h)
	}
	a.Free(0, hs[spill+1])
	if st := a.Stats(); st.SegPushes != 0 {
		t.Fatalf("unpressured free published %d segments, want 0", st.SegPushes)
	}
	if _, ok := a.TryAlloc(1); ok {
		t.Fatal("tid 1 allocated with every free block in tid 0's cache")
	}
	a.AddWaiter(1)
	defer a.AddWaiter(-1)
	a.Free(0, hs[spill+2])
	if st := a.Stats(); st.SegPushes != 1 {
		t.Fatalf("pressured free published %d segments, want 1", st.SegPushes)
	}
	for i := 0; i < spill; i++ {
		if _, ok := a.TryAlloc(1); !ok {
			t.Fatalf("tid 1 allocation %d failed with a published segment of %d", i, spill)
		}
	}
	if st := a.Stats(); st.SegPops != 1 {
		t.Fatalf("tid 1 claimed %d segments, want 1", st.SegPops)
	}
	if _, ok := a.TryAlloc(1); ok {
		t.Fatal("tid 1 allocated past the published segment")
	}
}

// TestTransferBoundsUnderStorm checks the wait-freedom bounds themselves,
// not only the outcome: eight producer/consumer tid pairs at SpillSize 1,
// every block freed on another tid, so nearly every free publishes and
// nearly every allocation refills. No publish may take more than two CAS
// attempts and no refill more than MaxThreads mailbox swaps, the
// quiescent census must account for every slot, and the published count
// that lets a miss skip the scan must match the segments in the
// mailboxes.
func TestTransferBoundsUnderStorm(t *testing.T) {
	const (
		pairs   = 8
		threads = 2 * pairs
		perPair = 5000
	)
	// A refill falls back to the bump region only when it finds no
	// segment to take, so the bump high-water stays near the blocks in
	// flight and in caches, far inside the capacity.
	a := New(Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true, SpillSize: 1})
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		// A buffer lets a producer run ahead of its consumer, so refills
		// meet mailboxes that other tids are swapping at the same time.
		ch := make(chan Handle, 64)
		wg.Add(2)
		go func(tid int) {
			defer wg.Done()
			defer close(ch)
			for i := 0; i < perPair; i++ {
				h := a.Alloc(tid)
				a.SetRetireEra(h, 1)
				ch <- h
			}
		}(p)
		go func(tid int) {
			defer wg.Done()
			for h := range ch {
				a.Free(tid, h)
			}
		}(pairs + p)
	}
	wg.Wait()
	maxCAS, maxSwaps := 0, 0
	for tid := range a.threads {
		tm := &a.threads[tid]
		maxCAS, maxSwaps = max(maxCAS, tm.maxPublishCASes), max(maxSwaps, tm.maxRefillSwaps)
		if tm.maxPublishCASes > 2 {
			t.Errorf("tid %d: a publish took %d CAS attempts, want at most 2", tid, tm.maxPublishCASes)
		}
		if tm.maxRefillSwaps > threads {
			t.Errorf("tid %d: a refill made %d mailbox swaps, want at most %d", tid, tm.maxRefillSwaps, threads)
		}
	}
	st := a.Stats()
	t.Logf("%d segments published, %d claimed, %d slots bumped; most CAS attempts in one publish %d, most swaps in one refill %d",
		st.SegPushes, st.SegPops, st.Bumped, maxCAS, maxSwaps)
	if st.InUse != 0 || st.SegPops == 0 {
		t.Fatalf("after the storm: InUse=%d SegPops=%d (want 0, >0)", st.InUse, st.SegPops)
	}
	c := a.Census()
	if c.Cached != c.CachedLen {
		t.Fatalf("cache walk %d disagrees with length counters %d", c.Cached, c.CachedLen)
	}
	if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
		t.Fatalf("census leak: %d cached + %d global + %d live + %d bump-free = %d != capacity %d",
			c.Cached, c.Global, c.Live, c.BumpFree, got, c.Capacity)
	}
	if uint64(c.Segments) != st.SegPushes-st.SegPops {
		t.Fatalf("%d segments published, want SegPushes-SegPops = %d-%d", c.Segments, st.SegPushes, st.SegPops)
	}
	if got := a.published.Load(); got != int64(c.Segments) {
		t.Fatalf("published count %d, want the %d segments in the mailboxes", got, c.Segments)
	}
}

// TestSlabChunksCacheLineAligned checks that the first chunks of a large
// arena start on 64-byte boundaries, so that with TestSlotSize's 64-byte
// slot every slot the bump allocator hands out sits on one cache line.
// A chunk is a 64 KiB large object, which Go's allocator places at the
// start of its own page-aligned span.
func TestSlabChunksCacheLineAligned(t *testing.T) {
	a := New(Config{Capacity: int(pack.HandleMask - 1), MaxThreads: 1})
	for range 8 * ChunkSize {
		h := a.Alloc(0)
		if p := uintptr(unsafe.Pointer(a.slot(h))); p%64 != 0 {
			t.Fatalf("slot %d (chunk %d) starts at %#x, off a 64-byte boundary", h, (h-1)/ChunkSize, p)
		}
	}
}

// TestFreeVersionWrapSkipsZero checks that Free never leaves a slot at
// version 0, which Version reserves for a slot never freed: the public
// Guard skips zeroing the words of a block at version 0.
func TestFreeVersionWrapSkipsZero(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	if v := a.Version(h); v != 0 {
		t.Fatalf("never-freed slot at version %d, want 0", v)
	}
	a.slot(h).version.Store(math.MaxUint32)
	a.SetRetireEra(h, 1)
	a.Free(0, h)
	if v := a.Version(h); v != 1 {
		t.Fatalf("version after the wrapping free = %d, want 1", v)
	}
}

// TestZeroWordsSkipsNeverFreed pins the one zeroing rule: ZeroWords
// leaves a never-freed block (version 0) as it is, since its chunk came
// zeroed, and zeroes every word of a recycled one, here a retired block
// whose free poisoned its words.
func TestZeroWordsSkipsNeverFreed(t *testing.T) {
	a := newTestArena(4, 1)
	h := a.Alloc(0)
	a.StoreWord(h, 0, 7) // a store the rule must not undo
	a.ZeroWords(h)
	if v := a.LoadWord(h, 0); v != 7 {
		t.Fatalf("ZeroWords on a never-freed block stored: word 0 = %d, want 7", v)
	}
	a.SetRetireEra(h, 1)
	a.Free(0, h)
	if got := a.Alloc(0); got != h {
		t.Fatalf("Alloc after Free = %d, want the freed %d", got, h)
	}
	if v := a.LoadWord(h, 1); v != poison {
		t.Fatalf("recycled word 1 = %#x, want the poison %#x", v, poison)
	}
	a.ZeroWords(h)
	for w := 0; w < NumWords; w++ {
		if v := a.LoadWord(h, w); v != 0 {
			t.Fatalf("recycled block after ZeroWords: word %d = %#x, want 0", w, v)
		}
	}
}

// TestAllocCountDerivedFromBump checks the count Stats derives: the
// per-thread counters hold only free-cache allocations and the bump
// highwater supplies the rest. Across bump allocations, fill-list
// allocations, a mailbox refill and failed TryAllocs past Capacity (which
// move the bump word), Allocs must equal the successful allocations,
// InUse must equal Allocs-Frees, and the census must account for every
// slot.
func TestAllocCountDerivedFromBump(t *testing.T) {
	const (
		spill    = 4
		capacity = 4 * spill
	)
	a := New(Config{Capacity: capacity, MaxThreads: 2, Debug: true, SpillSize: spill})
	var live []Handle
	allocs, frees := 0, 0
	alloc := func(tid, n int) {
		t.Helper()
		for range n {
			h, ok := a.TryAlloc(tid)
			if !ok {
				t.Fatalf("tid %d: allocation %d of %d failed", tid, allocs+1, n)
			}
			live = append(live, h)
			allocs++
		}
	}
	free := func(tid, n int) {
		for range n {
			h := live[len(live)-1]
			live = live[:len(live)-1]
			a.SetRetireEra(h, 1)
			a.Free(tid, h)
			frees++
		}
	}
	failPastCapacity := func() {
		t.Helper()
		for tid := range 2 {
			for range 3 {
				if h, ok := a.TryAlloc(tid); ok {
					t.Fatalf("tid %d allocated slot %d from a spent arena", tid, h)
				}
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		st := a.Stats()
		if st.Allocs != uint64(allocs) || st.Frees != uint64(frees) {
			t.Fatalf("%s: Allocs=%d Frees=%d, want %d and %d", stage, st.Allocs, st.Frees, allocs, frees)
		}
		if st.InUse != st.Allocs-st.Frees {
			t.Fatalf("%s: InUse=%d, want Allocs-Frees = %d", stage, st.InUse, st.Allocs-st.Frees)
		}
		c := a.Census()
		if c.Live != len(live) {
			t.Fatalf("%s: census counts %d live slots, want %d", stage, c.Live, len(live))
		}
		if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
			t.Fatalf("%s: census %d cached + %d global + %d live + %d bump-free = %d, want capacity %d",
				stage, c.Cached, c.Global, c.Live, c.BumpFree, got, c.Capacity)
		}
	}

	alloc(0, capacity)
	check("bump region spent")
	failPastCapacity()
	check("failed past capacity")
	// 2×spill+1 frees seal one segment and then publish it.
	free(0, 2*spill+1)
	if st := a.Stats(); st.SegPushes != 1 {
		t.Fatalf("%d segments published, want 1", st.SegPushes)
	}
	check("after frees")
	alloc(1, spill) // tid 1 refills from tid 0's mailbox
	if st := a.Stats(); st.SegPops != 1 {
		t.Fatalf("%d segments claimed, want 1", st.SegPops)
	}
	check("after the refill")
	alloc(0, spill+1) // the filling list, then the sealed segment
	check("after fill-list allocations")
	failPastCapacity()
	check("failed again")
	free(1, len(live))
	check("drained")
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse=%d after freeing every block", st.InUse)
	}
}
