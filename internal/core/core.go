// Package core implements the paper's universal construction: Wait-Free
// Eras (Nikolaev & Ravindran, PPoPP 2020) as a lock-free era scheme plus
// helping, applied to both base schemes the paper names.
//
//   - HE (he.go) is Hazard Eras, Figure 1, and WFE (wfe.go) is HE plus
//     helping, Figure 4 — the paper's contribution.
//   - IBR (ibr.go) is 2GEIBR, and WFEIBR (wfeibr.go) is 2GEIBR plus the
//     same helping, the §2.4 remark that the construction applies to it.
//
// Each piece exists once. The era clock (clock) is embedded by value in
// both base schemes. A helping scheme embeds its base scheme and one
// request board (board), and overrides the base methods that tick the
// clock so that every tick helps every pending request first — that is
// what bounds the slow path (Lemma 1). The base schemes' judges are the
// two reservation shapes of reclaim.Snapshot: EraReserved for HE and WFE,
// IntervalReserved for 2GEIBR and WFE-IBR.
//
// Go embedding has no virtual dispatch, which gives two rules. A base
// scheme's init takes the outer scheme as the Retirer's judge, so the
// retire-side hooks (PreScan, OnRetire, the two-phase gather) reach the
// helping scheme's overrides. And every base method that ticks the clock
// (TryAlloc, AdvanceClock, PreScan, OnRetire) is overridden by the helping
// scheme; a promoted base method would tick without helping.
//
// The retire side — retire lists, scan cadence, telemetry — lives in the
// shared reclaim.Retirer; every scheme here contributes a reservation
// layout and its Judge.
package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

// threadState is one thread's owner-written bookkeeping. The clock's
// allocation count and the schemes' per-thread fields share one padded
// record, so an operation's per-thread writes stay on one cache line:
// with the count on a line of its own, HE's Figure 7 hash-map benchmark
// used about 15% more CPU at two threads (2-vCPU Xeon VM).
type threadState struct {
	allocs uint64 // allocations so far, the clock's EraFreq cadence
	// dirty (HE, WFE) is one past the highest reservation index used since
	// the last Clear, bounding Clear's work to the indices actually touched.
	dirty int
	tag   uint64 // WFE-IBR's slow-path cycle counter
	_     [56]byte
}

// clock is the global era clock of every scheme in this package, with the
// era stamps it puts on blocks and the per-thread records.
type clock struct {
	arena   *mem.Arena
	era     atomic.Uint64
	freq    uint64
	tracer  *trace.Tracer
	threads []threadState
}

func (c *clock) init(arena *mem.Arena, cfg reclaim.Config) {
	c.arena = arena
	c.era.Store(max(1, cfg.InitialEra))
	c.freq = uint64(cfg.EraFreq)
	c.tracer = cfg.Tracer
	c.threads = make([]threadState, cfg.MaxThreads)
}

// Era returns the current global era clock value.
func (c *clock) Era() uint64 { return c.era.Load() }

// Arena implements reclaim.Scheme.
func (c *clock) Arena() *mem.Arena { return c.arena }

// allocDue counts one allocation by tid and reports whether it is on the
// clock's cadence: the thread's first allocation, then every EraFreq-th.
func (c *clock) allocDue(tid int) bool {
	t := &c.threads[tid]
	due := t.allocs%c.freq == 0
	t.allocs++
	return due
}

// retireDue reports whether a thread's 0-based retirement ordinal n is on
// the cadence the interval schemes' OnRetire ticks at.
func (c *clock) retireDue(n uint64) bool { return n%c.freq == 0 }

// tick advances the clock, guarding the 38-bit packing bound.
func (c *clock) tick(tid int) {
	era := c.era.Add(1)
	if era >= pack.MaxEra {
		panic("core: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	c.tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// alloc takes a block from the arena and stamps its allocation era; the
// caller runs the cadence first. Arena exhaustion reports (0, false).
func (c *clock) alloc(tid int) (mem.Handle, bool) {
	blk, ok := c.arena.TryAlloc(tid)
	if !ok {
		return 0, false
	}
	c.arena.SetAllocEra(blk, c.era.Load())
	return blk, true
}

// stampRetire stamps blk's retire era.
func (c *clock) stampRetire(blk mem.Handle) { c.arena.SetRetireEra(blk, c.era.Load()) }

// stampRetireBatch stamps every block with the era read once at
// submission: the clock is monotone, so that era is ≥ each unlink's and
// the stamped lifespan only over-approximates.
func (c *clock) stampRetireBatch(blks []mem.Handle) {
	era := c.era.Load()
	for _, blk := range blks {
		c.arena.SetRetireEra(blk, era)
	}
}

// request is one helping request, the paper's state_s.
type request struct {
	// result is a packed ResPair. Input (request posted): {InvPtr, tag}.
	// Output: {link value, era}. Cancelled: {0, Inf}.
	result atomic.Uint64
	// era is the parent block's allocation (birth) era, protecting the
	// parent while helpers dereference pointer (Inf when the source is a
	// structure root).
	era atomic.Uint64
	// pointer is the hazardous location to read on the requester's behalf.
	pointer atomic.Pointer[atomic.Uint64]
	_       [64 - 3*8]byte
}

// board is the helping schemes' request board: the request slots, the
// counterStart/counterEnd pair the cleanup gate and the help loop read,
// and the slow-path count. How a request is served — helpThread — and how
// a requester's slow path waits for it stay with each scheme: they are
// different hand-over proofs.
type board struct {
	counterStart atomic.Uint64 // threads that entered the slow path
	counterEnd   atomic.Uint64 // threads that left the slow path
	slowPaths    atomic.Uint64 // slow-path entries; ablation A1 reads it
	slots        []request
}

func (b *board) init(n int) {
	b.slots = make([]request, n)
	for i := range b.slots {
		b.slots[i].result.Store(uint64(pack.MakeRes(0, pack.Inf)))
		b.slots[i].era.Store(pack.Inf)
	}
}

// SlowPaths returns how many GetProtected calls entered the slow path.
func (b *board) SlowPaths() uint64 { return b.slowPaths.Load() }

// post publishes a request for slot k to read src, with era protecting
// src's parent, and returns the slot and its pending result word.
func (b *board) post(k int, src *atomic.Uint64, era, tag uint64) (*request, uint64) {
	b.slowPaths.Add(1)
	b.counterStart.Add(1)
	st := &b.slots[k]
	st.pointer.Store(src)
	st.era.Store(era)
	pending := uint64(pack.MakeRes(pack.InvPtr, tag))
	st.result.Store(pending)
	return st, pending
}

// helpPending runs help on every pending request, and must precede every
// tick of a helping scheme's clock (paper lines 87-93): this is what bounds
// the slow path by the number of in-flight era increments.
func (b *board) helpPending(tid int, help func(k, tid int)) {
	ce := b.counterEnd.Load()
	if b.counterStart.Load() == ce {
		return
	}
	for k := range b.slots {
		if pack.ResPair(b.slots[k].result.Load()).Pending() {
			help(k, tid)
		}
	}
}
