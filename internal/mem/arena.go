// Package mem is the manual-memory substrate the reclamation schemes manage.
//
// The paper's C++ implementation frees blocks back to jemalloc; a freed block
// may be re-allocated and rewritten while a stale reader still holds a
// pointer to it — exactly the hazard safe memory reclamation defends against.
// Go's garbage collector would silently keep such blocks alive and mask
// reclamation bugs, so this package simulates a manual allocator: a
// bounded arena of node slots addressed by small handles, whose memory is
// committed one Slab chunk at a time as the bump allocator first reaches
// it, the way the paper's allocator commits pages as blocks are used.
// Free returns a slot to a free list where it is immediately reusable;
// slots carry version counters and a state machine (free → live → retired
// → free) so use-after-free and double-free are *detectable* in debug
// mode, which is stronger validation than a native allocator offers.
//
// A Handle is a 24-bit slot reference; 0 is the nil handle. Handles embed in
// the 26-bit link values defined by the pack package.
//
// Paper mapping: the arena plays the role of the paper's allocator and
// per-block headers in one — alloc_era and retire_era (Figure 3's block
// fields, stamped by §3's alloc_block and retire) live in the slot, and
// Free is the free_block the cleanup routines of every scheme call once a
// retired block's lifespan overlaps no reservation.
package mem

import (
	"fmt"
	"sync/atomic"

	"wfe/internal/failpoint"
	"wfe/internal/pack"
	"wfe/internal/trace"
)

// Failpoint sites. Disarmed they cost one atomic load per evaluation;
// armed they let the chaos harness script allocation failure and refill
// starvation deterministically.
var (
	// fpAlloc fires inside TryAlloc: an injected error makes the
	// allocation report exhaustion even when slots remain.
	fpAlloc = failpoint.New("arena-alloc")
	// fpRefill fires at refill entry: an injected error makes the miss
	// path skip the mailboxes, as if every segment were already claimed.
	fpRefill = failpoint.New("arena-refill")
)

// Handle references an arena slot. 0 is nil; values 1..Capacity are slots.
type Handle = uint64

// NumWords is the number of general-purpose atomic words per slot. Link
// fields, mark bits, descriptor words and per-node metadata of every data
// structure in this repository fit in these words.
const NumWords = 4

// Slot states.
const (
	slotFree uint32 = iota
	slotLive
	slotRetired
)

// poison is written over the payload of freed slots in debug mode so that
// stale readers observe obviously-wrong values instead of plausible ones.
const poison = uint64(0xDEADBEEFDEADBEEF)

// slot is one block: exactly 64 bytes, one cache line (TestSlotSize and
// TestSlabChunksCacheLineAligned pin both). A slot the bump allocator
// hands out for the first time holds its chunk's zeroes in every field.
type slot struct {
	allocEra atomic.Uint64
	// retireEra is the retirement era while the slot is retired. A free
	// slot has none, so while it heads a published segment the word holds
	// the handle of the next segment in its mailbox's chain (0 ends the
	// chain); TryAlloc resets it when it recycles the slot. Only the tid
	// whose swap took the chain reads the link, so the value needs no
	// stamp.
	retireEra atomic.Uint64
	state     atomic.Uint32
	// version counts the slot's frees, skipping 0 on wrap, so 0 means the
	// slot was never freed and its words still hold their chunk's zeroes.
	version atomic.Uint32
	words   [NumWords]atomic.Uint64
	// nextFree is the free-list link. It is written only by the slot's
	// current owner (the freeing thread building its cache) and read only
	// by the cache's owner or, once the segment is published, by the tid
	// whose mailbox swap took it, so it needs no atomics.
	nextFree Handle
}

// threadMem is per-registered-thread allocator state, padded to two
// cache lines so neighbouring threads do not false-share and the fields
// an allocation or free touches sit on one line. Its free cache is a
// filling list of at most spillSize slots plus at most one sealed
// segment of exactly spillSize slots; only the owning tid touches either.
type threadMem struct {
	fillHead Handle
	fillLen  int
	sealed   Handle        // head of the sealed segment, or 0
	allocs   atomic.Uint64 // allocations from the free cache; Stats adds the bump word
	frees    atomic.Uint64
	pushes   atomic.Uint64 // segments this tid published
	pops     atomic.Uint64 // segments this tid's refills claimed
	// Owner-only high-water marks of the CAS attempts one publish took and
	// the mailbox swaps one refill made. Tests read them after the
	// workers join, to check the bounds publish and refill promise.
	maxPublishCASes int
	maxRefillSwaps  int
	_               [56]byte
}

// mailbox is one tid's chain of published segments: the handle of the
// top segment's head slot, or 0. Only its tid pushes onto it; every
// other tid only swaps it to 0. The padding keeps each mailbox word off
// its neighbours' cache lines.
type mailbox struct {
	head atomic.Uint64
	_    [56]byte
}

// defaultSpillSize is the default segment size. A transfer costs a few
// uncontended atomics whatever its size, so the default is sized for
// footprint: a thread's free cache holds at most 2×defaultSpillSize
// slots.
const defaultSpillSize = 256

// Config configures an Arena.
type Config struct {
	// Capacity is the number of slots. The maximum is 2^24-2 (handle width).
	Capacity int
	// MaxThreads is the number of registered threads (tids 0..MaxThreads-1).
	MaxThreads int
	// SpillSize is the number of slots moved between a thread's free cache
	// and the mailboxes in one segment transfer (default 256). A free that
	// finds the cache's filling list at SpillSize slots publishes the
	// sealed segment to the thread's mailbox and seals the filling list,
	// so a cache holds at most 2×SpillSize slots; an allocation miss
	// claims a whole segment. Either transfer is O(1) and wait-free.
	SpillSize int
	// Debug enables state checking and poisoning on every access.
	Debug bool
	// Tracer, when non-nil, receives segment spill/refill events. A nil
	// or disabled tracer costs one branch per segment transfer.
	Tracer *trace.Tracer
}

// Arena is a bounded slab of slots with per-thread free caches, one
// mailbox of published segments per thread, and a bump allocator for
// never-used slots. Only the chunks of the slab the bump allocator has
// reached exist. Every allocation and free is wait-free: a cache
// operation is O(1), a publish takes at most two CAS attempts, a refill
// at most MaxThreads swaps, and the bump allocator one fetch-and-add.
type Arena struct {
	slots Slab[slot]
	bump  atomic.Uint64 // next never-allocated slot index
	// published is never below the number of segments in the mailboxes:
	// a publish adds 1 before its CAS and a claim subtracts 1 after its
	// swap. So a miss that reads 0 skips the mailbox scan, and a bump
	// allocation costs one load here instead of a load per mailbox.
	published atomic.Int64
	threads   []threadMem
	mailboxes []mailbox
	cap       uint64
	spillSize int
	debug     bool
	growHook  func(idx uint64)
	freeHook  func(h Handle)
	tracer    *trace.Tracer
	waiters   atomic.Int64 // allocations stalled on exhaustion (AddWaiter)
}

// New creates an arena. It panics on an invalid configuration: the arena is
// infrastructure whose sizing is a programming decision, not runtime input.
func New(cfg Config) *Arena {
	if cfg.Capacity <= 0 || uint64(cfg.Capacity) > pack.HandleMask-1 {
		panic(fmt.Sprintf("mem: capacity %d out of range [1, %d]", cfg.Capacity, pack.HandleMask-1))
	}
	if cfg.MaxThreads <= 0 {
		panic("mem: MaxThreads must be positive")
	}
	if cfg.SpillSize == 0 {
		cfg.SpillSize = defaultSpillSize
	}
	if cfg.SpillSize < 0 {
		panic(fmt.Sprintf("mem: SpillSize %d must be non-negative (0 selects the default)", cfg.SpillSize))
	}
	return &Arena{
		slots:     NewSlab[slot](cfg.Capacity),
		threads:   make([]threadMem, cfg.MaxThreads),
		mailboxes: make([]mailbox, cfg.MaxThreads),
		cap:       uint64(cfg.Capacity),
		spillSize: cfg.SpillSize,
		debug:     cfg.Debug,
		tracer:    cfg.Tracer,
	}
}

// SetGrowHook registers fn to run when the bump allocator hands out slot
// index idx in a chunk that does not exist yet, before the arena
// publishes that slot chunk. Callers that keep per-slot payloads outside
// the arena (the public Domain's value slab) grow their own Slab there:
// once the slot chunk is published, allocators skip the hook, so the
// payload chunk must already exist by then. fn may run on several racing
// threads for one chunk, so it must be idempotent (Slab.Grow is). Register
// once, before the first allocation.
func (a *Arena) SetGrowHook(fn func(idx uint64)) { a.growHook = fn }

// SetFreeHook registers fn to run for every slot handed back by Free,
// before the slot joins a free list. Callers that keep per-slot payloads
// outside the arena (the public Domain's value slab) use it to drop those
// payloads when the block dies, so freed values do not linger as GC roots.
// Register once, before any concurrent use; fn runs on the freeing thread.
func (a *Arena) SetFreeHook(fn func(h Handle)) { a.freeHook = fn }

// Capacity returns the number of slots.
func (a *Arena) Capacity() int { return int(a.cap) }

// Debug reports whether debug checking is enabled.
func (a *Arena) Debug() bool { return a.debug }

func (a *Arena) slot(h Handle) *slot {
	return a.slots.At(h - 1)
}

// TryAlloc returns a fresh live slot for thread tid, reusing freed slots
// when available, or (0, false) when the arena is exhausted: tid's free
// cache is empty, no mailbox holds a segment to refill from, and the bump
// region is spent. Exhaustion is a backpressure signal, not a
// verdict — retired-but-unscanned blocks may become free after the next
// reclamation scan, which is exactly what the Domain's emergency
// allocation pipeline arranges before giving up.
func (a *Arena) TryAlloc(tid int) (Handle, bool) {
	if err := fpAlloc.Eval(tid); err != nil {
		return 0, false
	}
	t := &a.threads[tid]
	if t.fillHead == 0 {
		if t.sealed != 0 {
			t.fillHead, t.fillLen, t.sealed = t.sealed, a.spillSize, 0
		} else {
			a.refill(tid, t)
		}
	}
	if h := t.fillHead; h != 0 {
		s := a.slot(h)
		t.fillHead = s.nextFree
		t.fillLen--
		s.retireEra.Store(0) // its last retire era, or a segment link
		a.makeLive(h, s)
		t.allocs.Add(1)
		return h, true
	}
	idx := a.bump.Add(1) - 1
	if idx >= a.cap {
		return 0, false
	}
	if !a.slots.Has(idx) {
		if a.growHook != nil {
			a.growHook(idx)
		}
		a.slots.Grow(idx)
	}
	// A slot handed out for the first time still holds its chunk's
	// zeroes, retireEra included, and the bump word counts it.
	h := idx + 1
	a.makeLive(h, a.slot(h))
	return h, true
}

// Alloc is TryAlloc for callers that pre-size: it panics when the arena
// is exhausted. Size the arena for the workload (leak-baseline runs in
// particular must cover every allocation), or use TryAlloc and handle
// the pressure.
func (a *Arena) Alloc(tid int) Handle {
	h, ok := a.TryAlloc(tid)
	if !ok {
		panic(fmt.Sprintf("mem: arena exhausted (capacity %d); size the arena for the workload", a.cap))
	}
	return h
}

func (a *Arena) makeLive(h Handle, s *slot) {
	if a.debug {
		if st := s.state.Load(); st != slotFree {
			panic(fmt.Sprintf("mem: alloc of non-free slot %d (state %d)", h, st))
		}
	}
	s.state.Store(slotLive)
}

// AddWaiter registers (delta +1) or unregisters (-1) an allocation
// stalled on the exhausted arena. While any waiter is registered, a Free
// publishes its cache's sealed segment at once instead of when the
// filling list is full: under pressure a free block hiding in a private
// cache is a block the stalled thread cannot reach, so the caches keep
// only their filling lists and everything else goes to a mailbox, where
// any thread can claim it.
func (a *Arena) AddWaiter(delta int64) { a.waiters.Add(delta) }

// Pressured reports whether any allocation is currently stalled on the
// arena (registered via AddWaiter). Reclamation cadences consult it to
// scan out of cadence while someone is starving.
func (a *Arena) Pressured() bool { return a.waiters.Load() > 0 }

// Free returns a retired (or live, for structures that never published the
// node) slot to the free lists. In debug mode double frees panic, and the
// payload of every published (retired) block is poisoned; a live→free
// block is Dealloc's never-published constructor block, whose payload no
// other goroutine ever saw, so it skips the poison stores — the version
// bump and state word below still arm double-free and use-after-free
// detection for it.
func (a *Arena) Free(tid int, h Handle) {
	s := a.slot(h)
	if a.debug {
		st := s.state.Load()
		if st == slotFree {
			panic(fmt.Sprintf("mem: double free of slot %d", h))
		}
		if st == slotRetired {
			for i := range s.words {
				s.words[i].Store(poison)
			}
		}
	}
	if a.freeHook != nil {
		a.freeHook(h)
	}
	if s.version.Add(1) == 0 {
		s.version.Store(1) // 0 is reserved for never freed
	}
	s.state.Store(slotFree)
	t := &a.threads[tid]
	if t.fillLen == a.spillSize {
		if t.sealed != 0 {
			a.publish(tid, t)
		}
		t.sealed, t.fillHead, t.fillLen = t.fillHead, 0, 0
	}
	if t.sealed != 0 && a.waiters.Load() > 0 {
		a.publish(tid, t)
	}
	s.nextFree = t.fillHead
	t.fillHead = h
	t.fillLen++
	t.frees.Add(1)
}

// FreeRetired frees every slot still in the retired state, crediting the
// frees to tid's cache, and returns how many it freed. It must only run on
// a quiescent arena with every reservation cleared — then a retired slot
// is by definition unreachable. The live scheme switch uses it to reclaim
// blocks the outgoing scheme retired but never tracked (the leak
// baseline's entire backlog); for tracking schemes whose retire rings were
// already drained it is a read-only sweep.
func (a *Arena) FreeRetired(tid int) int {
	n := 0
	// Slots past the bump highwater were never handed out, so they cannot
	// be retired, and their chunks need not exist; the sweep stops there.
	hi := min(a.bump.Load(), a.cap)
	for i := uint64(0); i < hi; i++ {
		if a.slots.At(i).state.Load() == slotRetired {
			a.Free(tid, i+1)
			n++
		}
	}
	return n
}

// Segment transfers. A thread's free cache moves whole segments, linked
// through nextFree, to and from the mailboxes, one word per thread. Only
// a full filling list is sealed, so every segment is exactly spillSize
// slots long, and its head slot carries only the link to the next
// segment of its mailbox's chain, in retireEra. Only a mailbox's own
// thread pushes onto it, with a CAS; every other thread only swaps it to
// 0. So a push fails only when its mailbox was just emptied, and a
// claim never fails: both directions are O(1) and wait-free.

// publish pushes tid's sealed segment onto tid's mailbox and empties
// the sealed slot. A failed CAS saw another thread swap the mailbox to 0,
// and only tid makes it non-empty again, so the second attempt, from 0,
// cannot fail.
func (a *Arena) publish(tid int, t *threadMem) {
	a.published.Add(1)
	mb := &a.mailboxes[tid].head
	head := a.slot(t.sealed)
	for attempt := 1; attempt <= 2; attempt++ {
		next := mb.Load()
		head.retireEra.Store(next)
		if mb.CompareAndSwap(next, t.sealed) {
			t.sealed = 0
			t.maxPublishCASes = max(t.maxPublishCASes, attempt)
			t.pushes.Add(1)
			a.tracer.Emit(tid, trace.KindSegSpill, uint64(a.spillSize), 0)
			return
		}
	}
	panic(fmt.Sprintf("mem: mailbox %d filled by a thread other than its owner", tid))
}

// refill claims one published segment and installs it as tid's filling
// list. It visits each mailbox once, tid's own first and then tid+1,
// tid+2 and so on, wrapping, and swaps only one it saw non-empty: at
// most MaxThreads swaps. Of the chain it takes it keeps the first
// segment and stores the rest into its own mailbox, which is empty then
// (seen empty or just swapped empty, and only tid fills it), so that CAS
// cannot fail.
func (a *Arena) refill(tid int, t *threadMem) {
	if err := fpRefill.Eval(tid); err != nil {
		return
	}
	if a.published.Load() == 0 {
		return // no mailbox holds a segment
	}
	n := len(a.mailboxes)
	swaps := 0
	for i := range n {
		mb := &a.mailboxes[(tid+i)%n].head
		if mb.Load() == 0 {
			continue
		}
		swaps++
		seg := mb.Swap(0)
		if seg == 0 {
			continue // another thread took the chain after the load
		}
		if rest := a.slot(seg).retireEra.Load(); rest != 0 && !a.mailboxes[tid].head.CompareAndSwap(0, rest) {
			panic(fmt.Sprintf("mem: mailbox %d filled by a thread other than its owner", tid))
		}
		a.published.Add(-1)
		t.fillHead, t.fillLen = seg, a.spillSize
		t.pops.Add(1)
		a.tracer.Emit(tid, trace.KindSegRefill, uint64(a.spillSize), 0)
		break
	}
	t.maxRefillSwaps = max(t.maxRefillSwaps, swaps)
}

// check guards every slot access in debug mode. It is small enough to
// inline, so with Debug off an access pays a branch and no call.
func (a *Arena) check(h Handle, op string) {
	if a.debug {
		a.checkDebug(h, op)
	}
}

// checkDebug rejects a handle never handed out (nil, past Capacity, or
// above the bump high-water, where the slot's chunk may not exist) before
// it touches the slab, then a handle to a freed slot.
func (a *Arena) checkDebug(h Handle, op string) {
	if h == 0 || h > a.cap || h > a.bump.Load() {
		panic(fmt.Sprintf("mem: %s through invalid handle %d", op, h))
	}
	if a.slot(h).state.Load() == slotFree {
		panic(fmt.Sprintf("mem: use-after-free — %s of freed slot %d", op, h))
	}
}

// CheckLive panics in debug mode when h is invalid or refers to a freed
// slot; it is a no-op otherwise. Callers that keep per-slot payloads
// outside the arena (the public Domain's value slab) use it to extend
// use-after-free detection to those payloads.
func (a *Arena) CheckLive(h Handle, op string) { a.check(h, op) }

// AllocEra returns the slot's allocation era (paper: alloc_era).
func (a *Arena) AllocEra(h Handle) uint64 {
	a.check(h, "AllocEra")
	return a.slot(h).allocEra.Load()
}

// SetAllocEra stamps the slot's allocation era at allocation time.
func (a *Arena) SetAllocEra(h Handle, era uint64) {
	a.check(h, "SetAllocEra")
	a.slot(h).allocEra.Store(era)
}

// Eras returns the slot's allocation and retirement eras, the lifespan a
// scheme's cleanup judges, with one slot lookup.
func (a *Arena) Eras(h Handle) (alloc, retire uint64) {
	a.check(h, "Eras")
	s := a.slot(h)
	return s.allocEra.Load(), s.retireEra.Load()
}

// RetireEra returns the slot's retirement era (paper: retire_era).
func (a *Arena) RetireEra(h Handle) uint64 {
	a.check(h, "RetireEra")
	return a.slot(h).retireEra.Load()
}

// SetRetireEra stamps the retirement era and moves the slot to the retired
// state. Only in-flight readers may touch the slot afterwards.
func (a *Arena) SetRetireEra(h Handle, era uint64) {
	a.check(h, "SetRetireEra")
	s := a.slot(h)
	if a.debug {
		if st := s.state.Load(); st != slotLive {
			panic(fmt.Sprintf("mem: retire of slot %d in state %d", h, st))
		}
	}
	s.retireEra.Store(era)
	s.state.Store(slotRetired)
}

// LoadWord atomically loads payload word i.
func (a *Arena) LoadWord(h Handle, i int) uint64 {
	a.check(h, "LoadWord")
	return a.slot(h).words[i].Load()
}

// StoreWord atomically stores payload word i.
func (a *Arena) StoreWord(h Handle, i int, v uint64) {
	a.check(h, "StoreWord")
	a.slot(h).words[i].Store(v)
}

// CASWord compare-and-swaps payload word i.
func (a *Arena) CASWord(h Handle, i int, old, new uint64) bool {
	a.check(h, "CASWord")
	return a.slot(h).words[i].CompareAndSwap(old, new)
}

// WordAddr exposes the address of payload word i so it can serve as the
// hazardous-location argument of Scheme.GetProtected. The address stays
// valid for the life of the arena even if the slot is freed; reading a
// freed slot's word through it is the caller's (scheme's) responsibility.
func (a *Arena) WordAddr(h Handle, i int) *atomic.Uint64 {
	a.check(h, "WordAddr")
	return &a.slot(h).words[i]
}

// Version returns the slot's reuse version: the number of times it was
// freed, skipping 0 on wrap. 0 means the slot was never freed, so its
// words still hold their chunk's zeroes (see ZeroWords). Tests also use
// it to detect that a handle observed earlier now refers to a recycled
// slot.
func (a *Arena) Version(h Handle) uint32 {
	return a.slot(h).version.Load()
}

// ZeroWords zeroes the NumWords words of h, a block its caller allocated
// and has not published, unless h was never freed (Version 0): such a
// block still holds its chunk's zeroes and needs no stores. It is the one
// zeroing rule of every allocation that wants zeroed words: the public
// Guard's and the wait-free queue cores' nodes.
func (a *Arena) ZeroWords(h Handle) {
	a.check(h, "ZeroWords")
	s := a.slot(h)
	if s.version.Load() != 0 {
		for i := range s.words {
			s.words[i].Store(0)
		}
	}
}

// Live reports whether the slot is currently allocated (live or retired).
func (a *Arena) Live(h Handle) bool {
	return a.slot(h).state.Load() != slotFree
}

// Stats is a point-in-time allocation census.
type Stats struct {
	Allocs    uint64 // total allocations: free-cache ones plus Bumped
	Frees     uint64 // total frees
	InUse     uint64 // Allocs - Frees
	Bumped    uint64 // bump-allocator highwater: slots ever handed out
	SegPushes uint64 // segments published to the mailboxes
	SegPops   uint64 // segments claimed from the mailboxes by allocation misses
}

// Stats sums the per-thread counters and adds the bump highwater to
// Allocs, since a bump allocation is counted by the bump word alone. A
// failed allocation past Capacity moves the bump word but not the
// clamped highwater, so the counts are exact at quiescence; under
// concurrency the snapshot is approximate, which is fine for its
// monitoring purpose.
func (a *Arena) Stats() Stats {
	var st Stats
	for i := range a.threads {
		t := &a.threads[i]
		st.Allocs += t.allocs.Load()
		st.Frees += t.frees.Load()
		st.SegPushes += t.pushes.Load()
		st.SegPops += t.pops.Load()
	}
	st.Bumped = min(a.bump.Load(), a.cap)
	st.Allocs += st.Bumped
	st.InUse = st.Allocs - st.Frees
	return st
}

// Census is a quiescent-only accounting snapshot of where every slot
// sits. Every slot is in exactly one of the four places, so
// Cached+Global+Live+BumpFree == Capacity whenever no allocation or free
// is in flight; the arena invariant tests and quiesce.Check assert this.
type Census struct {
	Cached    int // slots walked in per-thread free caches
	CachedLen int // sum of the caches' length counters (must equal Cached)
	Global    int // slots walked in published segments, which any thread can claim
	Segments  int // published segments in the mailboxes
	Live      int // allocated slots (live or retired)
	BumpFree  int // slots the bump allocator has never handed out
	Capacity  int
}

// Census walks the free caches, the mailboxes' segment chains and the
// slot states. It must only be called on a quiescent arena: the walks
// take no locks and tolerate no concurrent Alloc/Free.
func (a *Arena) Census() Census {
	c := Census{Capacity: int(a.cap)}
	for i := range a.threads {
		t := &a.threads[i]
		c.CachedLen += t.fillLen
		if t.sealed != 0 {
			c.CachedLen += a.spillSize
		}
		c.Cached += a.listLen(t.fillHead) + a.listLen(t.sealed)
	}
	for i := range a.mailboxes {
		for seg := a.mailboxes[i].head.Load(); seg != 0; seg = a.slot(seg).retireEra.Load() {
			c.Segments++
			c.Global += a.listLen(seg)
		}
	}
	b := min(a.bump.Load(), a.cap)
	c.BumpFree = int(a.cap - b)
	// The Live walk must stop at the highwater: the chunks past it have
	// never been reached by the bump allocator, so they do not exist.
	for i := uint64(0); i < b; i++ {
		if a.slots.At(i).state.Load() != slotFree {
			c.Live++
		}
	}
	return c
}

// listLen counts the slots of the nextFree chain starting at h.
func (a *Arena) listLen(h Handle) int {
	n := 0
	for ; h != 0; h = a.slot(h).nextFree {
		n++
	}
	return n
}
