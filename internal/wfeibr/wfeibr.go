// Package wfeibr implements the extension the paper sketches in §2.4 and
// §6: applying the Wait-Free Eras construction to 2GEIBR, the
// interval-based reclamation variant whose only non-wait-free operation is
// the same era-stabilisation loop as Hazard Eras'. ("Our approach is
// applicable to the 2GEIBR version where only hazardous reference accesses
// need to be made wait-free.")
//
// The scheme keeps 2GEIBR's per-thread reservation interval [lower, upper]
// and adds WFE's machinery around it:
//
//   - GetProtected runs the 2GEIBR loop for MaxAttempts rounds (fast path),
//     then publishes a helping request — one slot per thread, since an
//     interval scheme has a single in-flight protected read per thread.
//   - Threads about to advance the era from Alloc or Retire first help
//     every pending request (increment_era), bounding the slow path by the
//     number of in-flight increments, exactly as in WFE's Lemma 1.
//   - A helper protects itself with a dedicated special interval, raises
//     the requester's upper bound to the read era *before* publishing the
//     result, and only then releases the special interval. Reclamation
//     scans therefore gather special intervals first and normal intervals
//     second: a hand-over between the two reads is caught by the second
//     (the analogue of the paper's Lemma 5 scan order).
//
// The hand-over is simpler than WFE's: raising an interval's upper bound is
// only ever conservative, so the reservation needs no tag — the per-cycle
// tag lives solely in the result word, where it makes request identities
// unique.
//
// The retire side lives in the shared reclaim.Retirer; this package
// contributes the helping machinery and its interval Judge. The Judge's
// Gather preserves the scan order the hand-over proof needs: special
// intervals first, normal intervals second.
package wfeibr

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

// interval is a padded [lower, upper] reservation.
type interval struct {
	lower atomic.Uint64
	upper atomic.Uint64
	_     [48]byte
}

// slowSlot is one helping request; one per thread suffices because a thread
// has at most one GetProtected in flight.
type slowSlot struct {
	result  atomic.Uint64 // ResPair: {InvPtr, tag} pending, {link, era} produced
	birth   atomic.Uint64 // parent block's birth era (Inf for roots)
	pointer atomic.Pointer[atomic.Uint64]
	_       [40]byte
}

type threadState struct {
	allocCount uint64
	tag        uint64 // slow-path cycle counter (owner-local)
	_          [64]byte
}

// WFEIBR is wait-free 2GEIBR.
type WFEIBR struct {
	arena        *mem.Arena
	cfg          reclaim.Config
	rt           *reclaim.Retirer
	globalEra    atomic.Uint64
	counterStart atomic.Uint64
	counterEnd   atomic.Uint64

	intervals []interval // normal per-thread reservations
	specials  []interval // helper-side reservations
	state     []slowSlot
	threads   []threadState
	slowPaths atomic.Uint64
}

var _ reclaim.Scheme = (*WFEIBR)(nil)
var _ reclaim.Judge = (*WFEIBR)(nil)
var _ reclaim.RetireObserver = (*WFEIBR)(nil)

// New creates a wait-free 2GEIBR scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *WFEIBR {
	cfg = cfg.Defaults()
	n := cfg.MaxThreads
	w := &WFEIBR{
		arena:     arena,
		cfg:       cfg,
		intervals: make([]interval, n),
		specials:  make([]interval, n),
		state:     make([]slowSlot, n),
		threads:   make([]threadState, n),
	}
	w.rt = reclaim.NewRetirer(arena, cfg, w)
	w.globalEra.Store(max(1, cfg.InitialEra))
	for i := 0; i < n; i++ {
		w.intervals[i].lower.Store(pack.Inf)
		w.intervals[i].upper.Store(pack.Inf)
		w.specials[i].lower.Store(pack.Inf)
		w.specials[i].upper.Store(pack.Inf)
		w.state[i].result.Store(uint64(pack.MakeRes(0, pack.Inf)))
	}
	return w
}

// Name implements reclaim.Scheme.
func (w *WFEIBR) Name() string { return "WFE-IBR" }

// Arena implements reclaim.Scheme.
func (w *WFEIBR) Arena() *mem.Arena { return w.arena }

// Retirer implements reclaim.Scheme.
func (w *WFEIBR) Retirer() *reclaim.Retirer { return w.rt }

// Era returns the global era clock.
func (w *WFEIBR) Era() uint64 { return w.globalEra.Load() }

// SlowPaths returns how many GetProtected calls entered the slow path.
func (w *WFEIBR) SlowPaths() uint64 { return w.slowPaths.Load() }

// Begin opens the operation's reservation interval at the current era.
func (w *WFEIBR) Begin(tid int) {
	e := w.globalEra.Load()
	iv := &w.intervals[tid]
	iv.upper.Store(e)
	iv.lower.Store(e)
}

// Clear closes the interval.
func (w *WFEIBR) Clear(tid int) {
	iv := &w.intervals[tid]
	iv.lower.Store(pack.Inf)
	iv.upper.Store(pack.Inf)
}

// BeginBatch implements reclaim.Scheme: one reservation interval spans the
// whole batch, exactly as in 2GEIBR — GetProtected (fast or slow path)
// keeps raising the upper bound, so the open interval covers every block
// the batch touches. Helpers interact with the interval only by raising
// its upper bound, which batching does not change.
func (w *WFEIBR) BeginBatch(tid int) bool {
	w.Begin(tid)
	return true
}

// EndBatch implements reclaim.Scheme: close the batch's interval.
func (w *WFEIBR) EndBatch(tid int) { w.Clear(tid) }

// RetireBatch implements reclaim.Scheme: stamp every block with the era
// read once at submission (monotone, so ≥ each unlink's era — a
// conservative lifespan) and hand the burst to the runtime's amortized
// retire path; the retire-driven era advance ticks once per burst through
// OnRetire, via the helping path.
func (w *WFEIBR) RetireBatch(tid int, blks []mem.Handle) {
	era := w.globalEra.Load()
	for _, blk := range blks {
		w.arena.SetRetireEra(blk, era)
	}
	w.rt.RetireBatch(tid, blks)
}

// raiseUpper monotonically lifts an interval's upper bound to at least e.
// Raising is always conservative, so competing raises need no tags.
func raiseUpper(iv *interval, e uint64) {
	for {
		cur := iv.upper.Load()
		if cur >= e && cur != pack.Inf {
			return
		}
		if cur == pack.Inf {
			// Closed interval: nothing to protect (stale raise after Clear
			// would resurrect a dead reservation — skip it).
			return
		}
		if iv.upper.CompareAndSwap(cur, e) {
			return
		}
	}
}

// GetProtected is the 2GEIBR loop with WFE's fast-path bound and helping.
// Each call's combined fast+slow iteration count feeds the shared step
// histogram — the bounded-steps distribution WFE's construction delivers.
func (w *WFEIBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	iv := &w.intervals[tid]
	prev := iv.upper.Load()
	if !w.cfg.ForceSlowPath {
		for a := 0; a < w.cfg.MaxAttempts; a++ {
			ret := src.Load()
			cur := w.globalEra.Load()
			if prev == cur {
				w.rt.RecordSteps(tid, uint64(a)+1)
				return ret
			}
			iv.upper.Store(cur)
			prev = cur
		}
	}
	return w.getProtectedSlow(tid, src, parent, prev)
}

func (w *WFEIBR) getProtectedSlow(tid int, src *atomic.Uint64, parent mem.Handle, prev uint64) uint64 {
	w.slowPaths.Add(1)
	steps := uint64(w.cfg.MaxAttempts)
	defer func() { w.rt.RecordSteps(tid, steps) }()
	birth := uint64(pack.Inf)
	if parent != 0 {
		birth = w.arena.AllocEra(parent)
	}

	t := &w.threads[tid]
	t.tag++
	tag := t.tag & (1<<pack.EraBits - 1) // fit the ResPair val field
	if tag == pack.Inf {
		t.tag++
		tag = t.tag & (1<<pack.EraBits - 1)
	}

	w.counterStart.Add(1)
	st := &w.state[tid]
	st.pointer.Store(src)
	st.birth.Store(birth)
	pending := uint64(pack.MakeRes(pack.InvPtr, tag))
	st.result.Store(pending)

	iv := &w.intervals[tid]
	for { // bounded by in-flight era increments (WFE Lemma 1)
		steps++
		ret := src.Load()
		cur := w.globalEra.Load()
		if prev == cur &&
			st.result.CompareAndSwap(pending, uint64(pack.MakeRes(0, pack.Inf))) {
			w.counterEnd.Add(1)
			return ret
		}
		raiseUpper(iv, cur)
		prev = cur

		res := pack.ResPair(st.result.Load())
		if !res.Pending() {
			// A helper produced the output and already raised our upper
			// bound to res.Val() before publishing; raise again for the
			// self-raced case where our CAS lost.
			raiseUpper(iv, res.Val())
			w.counterEnd.Add(1)
			return res.Ptr()
		}
	}
}

// incrementEra helps all pending requests, then advances the clock.
func (w *WFEIBR) incrementEra(tid int) {
	ce := w.counterEnd.Load()
	cs := w.counterStart.Load()
	if cs != ce {
		for i := 0; i < w.cfg.MaxThreads; i++ {
			if pack.ResPair(w.state[i].result.Load()).Pending() {
				w.helpThread(i, tid)
			}
		}
	}
	era := w.globalEra.Add(1)
	if era >= pack.MaxEra {
		panic("wfeibr: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	w.cfg.Tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// helpThread completes thread i's pending protected read.
func (w *WFEIBR) helpThread(i, tid int) {
	st := &w.state[i]
	res := pack.ResPair(st.result.Load())
	if !res.Pending() {
		return
	}
	birth := st.birth.Load()
	sp := &w.specials[tid]

	// Cover the parent block (and everything we may read) with the special
	// interval before re-validating the request; the re-read proves the
	// request was still pending — and the requester's own interval still
	// open — at a moment the special interval already protected us.
	start := w.globalEra.Load()
	lo := birth
	if lo == pack.Inf {
		lo = start
	}
	sp.upper.Store(start)
	sp.lower.Store(lo)

	if pack.ResPair(st.result.Load()) != res {
		sp.lower.Store(pack.Inf)
		sp.upper.Store(pack.Inf)
		return
	}
	ptr := st.pointer.Load()
	prev := start
	for ptr != nil { // bounded by in-flight era increments (WFE Lemma 2)
		ret := ptr.Load() & pack.PtrMask
		cur := w.globalEra.Load()
		if prev == cur {
			// Hand the reservation over before publishing the result
			// (scan order: specials first, normals second — the raise
			// lands before the special interval is released below).
			raiseUpper(&w.intervals[i], cur)
			st.result.CompareAndSwap(uint64(res), uint64(pack.MakeRes(ret, cur)))
			break
		}
		sp.upper.Store(cur)
		prev = cur
		if pack.ResPair(st.result.Load()) != res {
			break
		}
	}
	sp.lower.Store(pack.Inf)
	sp.upper.Store(pack.Inf)
}

// Alloc stamps the birth era, helping before each periodic era advance.
func (w *WFEIBR) Alloc(tid int) mem.Handle {
	t := &w.threads[tid]
	if t.allocCount%uint64(w.cfg.EraFreq) == 0 {
		w.incrementEra(tid)
	}
	t.allocCount++
	blk := w.arena.Alloc(tid)
	w.arena.SetAllocEra(blk, w.globalEra.Load())
	return blk
}

// TryAlloc is Alloc with backpressure: the era cadence still ticks, but
// arena exhaustion reports (0, false) instead of panicking.
func (w *WFEIBR) TryAlloc(tid int) (mem.Handle, bool) {
	t := &w.threads[tid]
	if t.allocCount%uint64(w.cfg.EraFreq) == 0 {
		w.incrementEra(tid)
	}
	t.allocCount++
	blk, ok := w.arena.TryAlloc(tid)
	if !ok {
		return 0, false
	}
	w.arena.SetAllocEra(blk, w.globalEra.Load())
	return blk, true
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook, routed
// through the wait-free helping path like every other advance.
func (w *WFEIBR) AdvanceClock(tid int) { w.incrementEra(tid) }

// Retire stamps the retire era and hands the block to the shared
// retire-side runtime; the era advances on retirement too (see the ibr
// package), via the helping path, through the OnRetire hook.
func (w *WFEIBR) Retire(tid int, blk mem.Handle) {
	w.arena.SetRetireEra(blk, w.globalEra.Load())
	w.rt.Retire(tid, blk)
}

// OnRetire implements reclaim.RetireObserver: the periodic retire-driven
// era advance, routed through incrementEra so pending requests get helped
// first.
func (w *WFEIBR) OnRetire(tid int, n uint64, blk mem.Handle) {
	if n%uint64(w.cfg.EraFreq) == 0 {
		w.incrementEra(tid)
	}
}

// Gather implements reclaim.Judge: special intervals first and normal
// intervals second (the Lemma 5 scan order for the upper-bound hand-over).
// The membership test is a union over both classes, so the runtime may
// sort the gathered endpoints once — after the gather, which keeps the
// scan order — without touching the proof.
func (w *WFEIBR) Gather(tid int, s *reclaim.Snapshot) {
	for _, set := range [][]interval{w.specials, w.intervals} {
		for i := range set {
			lower := set[i].lower.Load()
			if lower == pack.Inf {
				continue
			}
			s.AddInterval(lower, set[i].upper.Load())
		}
	}
}

// CanFree implements reclaim.Judge via canDelete, which retains the
// pre-overhaul paired linear sweep as the property-tested reference
// oracle.
func (w *WFEIBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	los, his := s.Intervals()
	return w.canDelete(blk, los, his, s.Linear())
}

// canDelete reports whether the block's [birth, retire] lifespan overlaps
// none of the gathered reservation intervals; linear selects the paired
// reference sweep (the endpoint slices are sorted independently
// otherwise).
func (w *WFEIBR) canDelete(blk mem.Handle, los, his []uint64, linear bool) bool {
	birth, retire := w.arena.Eras(blk)
	if linear {
		return !intervalReservedLinear(los, his, birth, retire)
	}
	return !reclaim.IntervalsOverlap(los, his, birth, retire)
}

// intervalReservedLinear is the pre-overhaul O(G) per-block overlap sweep
// over paired endpoints, kept as the reference oracle for the sorted
// scan's property test and the -ablation scan comparison.
func intervalReservedLinear(los, his []uint64, birth, retire uint64) bool {
	for i := range los {
		if birth <= his[i] && retire >= los[i] {
			return true
		}
	}
	return false
}

// Unreclaimed implements reclaim.Scheme.
func (w *WFEIBR) Unreclaimed() int { return w.rt.Unreclaimed() }
