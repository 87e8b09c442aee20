package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// WFEIBR is wait-free 2GEIBR: the extension the paper sketches in §2.4 and
// §6, applying the Wait-Free Eras construction to 2GEIBR, whose only
// non-wait-free operation is the same era-stabilisation loop as Hazard
// Eras'. ("Our approach is applicable to the 2GEIBR version where only
// hazardous reference accesses need to be made wait-free.")
//
// The scheme keeps 2GEIBR's per-thread reservation interval (the embedded
// IBR) and adds WFE's machinery around it:
//
//   - GetProtected runs the 2GEIBR loop for MaxAttempts rounds (fast path),
//     then posts a helping request — one board slot per thread, since an
//     interval scheme has a single in-flight protected read per thread.
//   - Threads about to advance the era from TryAlloc or Retire first help
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
type WFEIBR struct {
	IBR
	requests
}

var _ reclaim.Scheme = (*WFEIBR)(nil)
var _ reclaim.Judge = (*WFEIBR)(nil)
var _ reclaim.RetireObserver = (*WFEIBR)(nil)

// NewWFEIBR creates a wait-free 2GEIBR scheme over the given arena.
func NewWFEIBR(arena *mem.Arena, cfg reclaim.Config) *WFEIBR {
	w := &WFEIBR{}
	w.IBR.init(w, "WFE-IBR", arena, cfg, 4, w.incrementEra) // + the special interval
	w.requests.init(w.cfg.MaxThreads)
	return w
}

// raiseUpper monotonically lifts an interval's upper bound to at least e.
// Raising is always conservative, so competing raises need no tags.
func raiseUpper(upper *atomic.Uint64, e uint64) {
	for {
		cur := upper.Load()
		if cur >= e && cur != pack.Inf {
			return
		}
		if cur == pack.Inf {
			// Closed interval: nothing to protect (stale raise after Clear
			// would resurrect a dead reservation — skip it).
			return
		}
		if upper.CompareAndSwap(cur, e) {
			return
		}
	}
}

// GetProtected is the 2GEIBR loop with WFE's fast-path bound and helping.
// Each call's combined fast+slow iteration count feeds the shared step
// histogram — the bounded-steps distribution WFE's construction delivers.
func (w *WFEIBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	upper := w.resv(tid, normal+1)
	prev := upper.Load()
	if !w.cfg.ForceSlowPath {
		for a := 0; a < w.cfg.MaxAttempts; a++ {
			ret := src.Load()
			cur := w.era.Load()
			if prev == cur {
				w.rt.RecordSteps(tid, uint64(a)+1)
				return ret
			}
			upper.Store(cur)
			prev = cur
		}
	}
	return w.getProtectedSlow(tid, src, parent, prev)
}

func (w *WFEIBR) getProtectedSlow(tid int, src *atomic.Uint64, parent mem.Handle, prev uint64) uint64 {
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
	st, pending := w.post(tid, src, birth, tag)

	upper := w.resv(tid, normal+1)
	for { // bounded by in-flight era increments (WFE Lemma 1)
		steps++
		ret := src.Load()
		cur := w.era.Load()
		if prev == cur &&
			st.result.CompareAndSwap(pending, uint64(pack.MakeRes(0, pack.Inf))) {
			w.counterEnd.Add(1)
			return ret
		}
		raiseUpper(upper, cur)
		prev = cur

		res := pack.ResPair(st.result.Load())
		if !res.Pending() {
			// A helper produced the output and already raised our upper
			// bound to res.Val() before publishing; raise again for the
			// self-raced case where our CAS lost.
			raiseUpper(upper, res.Val())
			w.counterEnd.Add(1)
			return res.Ptr()
		}
	}
}

// incrementEra helps all pending requests, then advances the clock. It is
// the clock's advance, so TryAlloc, AdvanceClock and OnRetire all help.
func (w *WFEIBR) incrementEra(tid int) {
	w.helpPending(tid, w.helpThread)
	w.tick(tid)
}

// helpThread completes thread i's pending protected read.
func (w *WFEIBR) helpThread(i, tid int) {
	st := &w.slots[i]
	res := pack.ResPair(st.result.Load())
	if !res.Pending() {
		return
	}
	birth := st.era.Load()
	sp := w.interval(tid, special)

	// Cover the parent block (and everything we may read) with the special
	// interval before re-validating the request; the re-read proves the
	// request was still pending — and the requester's own interval still
	// open — at a moment the special interval already protected us.
	start := w.era.Load()
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
		cur := w.era.Load()
		if prev == cur {
			// Hand the reservation over before publishing the result
			// (scan order: specials first, normals second — the raise
			// lands before the special interval is released below).
			raiseUpper(w.resv(i, normal+1), cur)
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

// Gather implements reclaim.Judge: special intervals first and normal
// intervals second (the Lemma 5 scan order for the upper-bound hand-over).
// The membership test is a union over both classes, so the runtime may
// sort the gathered endpoints once — after the gather, which keeps the
// scan order — without touching the proof.
func (w *WFEIBR) Gather(tid int, s *reclaim.Snapshot) {
	w.gatherIntervals(s, special)
	w.gatherIntervals(s, normal)
}
