package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// WFE is Wait-Free Eras, the paper's contribution: a universal memory
// reclamation scheme in which every operation — GetProtected, Retire,
// TryAlloc, Clear and the internal cleanup — completes in a bounded number
// of steps (Figure 4).
//
// WFE runs Hazard Eras (the embedded HE) on the fast path. When
// GetProtected fails to observe a stable global era within MaxAttempts
// iterations, the thread posts a helping request (state[tid][index], one
// board slot per reservation) and enters the slow path. Threads that would
// advance the global era from TryAlloc or Retire first help every pending
// request (increment_era → help_thread), bounding the slow-path loop by
// the number of in-flight era increments (Lemma 1).
//
// The paper's two 128-bit WCAS targets — the {era, tag} reservation pair
// and the {pointer, era} result pair — are packed into single 64-bit words
// by the pack package; see pack's documentation for the width argument.
// Where the paper's owner thread writes one half of a pair with a plain
// store, the packed representation must write the whole word; each such
// site is annotated with the interleaving argument for why the combined
// write is safe.
//
// Its Judge keeps the paper's Figure 4 cleanup discipline: the first
// snapshot gathers normal reservations then the first special reservation,
// the counterStart/counterEnd gate decides whether phase-one survivors
// must be re-judged, and the second snapshot gathers the second special
// reservation then the normals again — the Lemma 4/5 read order, intact.
type WFE struct {
	HE
	board
}

var _ reclaim.Scheme = (*WFE)(nil)
var _ reclaim.TwoPhase = (*WFE)(nil)
var _ reclaim.PreScanner = (*WFE)(nil)

// New creates a WFE scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *WFE {
	w := &WFE{}
	w.HE.init(arena, cfg, 2, w) // columns MaxHEs and MaxHEs+1: help_thread's
	w.board.init(w.cfg.MaxThreads * w.cfg.MaxHEs)
	return w
}

// Name implements reclaim.Scheme.
func (w *WFE) Name() string { return "WFE" }

func (w *WFE) slot(tid, j int) *request {
	return &w.slots[tid*w.cfg.MaxHEs+j]
}

// GetProtected implements the paper's get_protected (Figure 4, lines 12-55).
func (w *WFE) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	if t := &w.threads[tid]; index >= t.dirty {
		t.dirty = index + 1
	}
	r := w.resv(tid, index)
	cur := pack.EraTag(r.Load())
	prevEra, tag := cur.Era(), cur.Tag()

	if !w.cfg.ForceSlowPath {
		for a := 0; a < w.cfg.MaxAttempts; a++ { // fast path
			ret := src.Load()
			newEra := w.era.Load()
			if prevEra == newEra {
				w.rt.RecordSteps(tid, uint64(a)+1)
				return ret
			}
			// Owner-only full-word store. A helper CAS on this word requires
			// a pending request with the current tag; no request is pending
			// on the fast path, so the combined {era, tag} store cannot
			// clobber a helper's update.
			r.Store(uint64(pack.MakeEraTag(newEra, tag)))
			prevEra = newEra
		}
	}
	return w.getProtectedSlow(tid, src, index, parent, prevEra, tag)
}

func (w *WFE) getProtectedSlow(tid int, src *atomic.Uint64, index int, parent mem.Handle, prevEra, tag uint64) uint64 {
	// Fetch the parent's era so helpers can protect the block holding src.
	allocEra := uint64(pack.Inf)
	if parent != 0 {
		allocEra = w.arena.AllocEra(parent)
	}
	st, pending := w.post(tid*w.cfg.MaxHEs+index, src, allocEra, tag)

	r := w.resv(tid, index)
	steps := uint64(w.cfg.MaxAttempts)
	defer func() { w.rt.RecordSteps(tid, steps) }()
	for { // bounded by the number of in-flight era increments (Lemma 1)
		steps++
		ret := src.Load()
		newEra := w.era.Load()
		if prevEra == newEra &&
			st.result.CompareAndSwap(pending, uint64(pack.MakeRes(0, pack.Inf))) {
			// Self-completion: the request was cancelled before any helper
			// produced output, so no helper will CAS this reservation for
			// this tag; the combined store advancing the tag is safe. The
			// era field keeps prevEra, which protects ret.
			r.Store(uint64(pack.MakeEraTag(prevEra, tag+1)))
			w.counterEnd.Add(1)
			return ret
		}
		// Keep the published reservation's era current; failures mean a
		// helper already updated it, which is fine (paper line 44).
		r.CompareAndSwap(uint64(pack.MakeEraTag(prevEra, tag)), uint64(pack.MakeEraTag(newEra, tag)))
		prevEra = newEra

		res := pack.ResPair(st.result.Load())
		if !res.Pending() {
			// A helper produced the output: adopt its era. The helper's own
			// reservation CAS (if it won) wrote the same {era, tag+1} pair,
			// so this combined store writes an identical value at worst.
			r.Store(uint64(pack.MakeEraTag(res.Val(), tag+1)))
			w.counterEnd.Add(1)
			return res.Ptr()
		}
	}
}

// incrementEra helps every pending slow-path request before advancing the
// global era (paper lines 87-99); this is what makes the slow path bounded.
func (w *WFE) incrementEra(tid int) {
	w.helpPending(tid, w.helpSlot)
	w.tick(tid)
}

// helpSlot serves board slot k, which is thread k/MaxHEs's request at
// reservation k%MaxHEs.
func (w *WFE) helpSlot(k, tid int) { w.helpThread(k/w.cfg.MaxHEs, k%w.cfg.MaxHEs, tid) }

// helpThread completes thread i's request at reservation j on its behalf
// (paper lines 101-134).
func (w *WFE) helpThread(i, j, tid int) {
	st := w.slot(i, j)
	res := pack.ResPair(st.result.Load())
	if !res.Pending() {
		return
	}
	era := st.era.Load()
	// Special reservation 1 protects the parent block while we read from it.
	w.resv(tid, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(era, 0)))

	ptr := st.pointer.Load()
	tag := pack.EraTag(w.resv(i, j).Load()).Tag()
	if tag == res.Val() && ptr != nil {
		// All state fields were read consistently: the request is still in
		// the slow-path cycle identified by tag.
		prevEra := w.era.Load()
		for { // bounded by in-flight era increments (Lemma 2)
			// Special reservation 2 protects the block the hazardous entry
			// refers to while the reservation is handed over.
			w.resv(tid, w.cfg.MaxHEs+1).Store(uint64(pack.MakeEraTag(prevEra, 0)))
			ret := ptr.Load() & pack.PtrMask
			newEra := w.era.Load()
			if prevEra == newEra {
				if st.result.CompareAndSwap(uint64(res), uint64(pack.MakeRes(ret, newEra))) {
					for { // at most 2 iterations (Lemma 3)
						old := pack.EraTag(w.resv(i, j).Load())
						if old.Tag() != tag {
							break
						}
						if w.resv(i, j).CompareAndSwap(uint64(old), uint64(pack.MakeEraTag(newEra, tag+1))) {
							break
						}
					}
				}
				break
			}
			prevEra = newEra
			if pack.ResPair(st.result.Load()) != res {
				break
			}
		}
		w.resv(tid, w.cfg.MaxHEs+1).Store(uint64(pack.MakeEraTag(pack.Inf, 0)))
	}
	w.resv(tid, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(pack.Inf, 0)))
}

// TryAlloc implements the paper's alloc_block (Figure 4, lines 69-75): the
// cadence's era advance goes through incrementEra.
func (w *WFE) TryAlloc(tid int) (mem.Handle, bool) {
	if w.allocDue(tid) {
		w.incrementEra(tid)
	}
	return w.alloc(tid)
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook, routed
// through incrementEra so pending slow-path requests get helped first.
func (w *WFE) AdvanceClock(tid int) { w.incrementEra(tid) }

// PreScan implements reclaim.PreScanner — the paper's pre-cleanup era
// advance (Figure 4, lines 77-85), taken only if the triggering block's
// retire era still equals the global era, and routed through incrementEra
// so pending slow-path requests get helped first.
func (w *WFE) PreScan(tid int, blk mem.Handle) {
	if w.arena.RetireEra(blk) == w.era.Load() {
		w.incrementEra(tid)
	}
}

// The cleanup scan follows the paper's two-phase discipline (Figure 4,
// lines 57-67) through the runtime's TwoPhase protocol. Instead of
// re-reading the reservation matrix for every block, each reservation
// class is gathered once per scan, in the order the Lemma 4/5 proofs
// require — normal reservations, then the first special reservation, then
// (for survivors of the first test) the second special reservation
// followed by the normals again. A gathered snapshot can only
// over-approximate the per-block scan (a reservation cleared mid-scan is
// still honoured), the counter gate is taken across the whole scan
// (strictly more conservative than per block), and the tag check in
// help_thread rules out the one helper window the snapshots could miss,
// exactly as in the per-block formulation. Both phases judge with HE's
// CanFree.

// Gather implements reclaim.Judge: the first phase's snapshot — normal
// reservations first, then special reservation 1 — bracketed by the
// counterEnd/counterStart reads whose disagreement forces the second
// phase (stashed as the snapshot's aux flag for NeedSecond).
func (w *WFE) Gather(tid int, s *reclaim.Snapshot) {
	h := w.cfg.MaxHEs
	ce := w.counterEnd.Load()
	w.gather(s, 0, h)   // normal reservations first,
	w.gather(s, h, h+1) // then special reservation 1
	if w.counterStart.Load() != ce {
		s.SetAux(0, 1) // helping in flight: survivors need phase two
	}
}

// NeedSecond implements reclaim.TwoPhase: a slow path was in flight across
// the first gather, so blocks it cleared are only provisionally free.
func (w *WFE) NeedSecond(tid int, s *reclaim.Snapshot) bool {
	return s.Aux(0) != 0
}

// GatherSecond implements reclaim.TwoPhase: the second phase's snapshot —
// special reservation 2 first, then the normals again.
func (w *WFE) GatherSecond(tid int, s *reclaim.Snapshot) {
	h := w.cfg.MaxHEs
	w.gather(s, h+1, h+2) // special reservation 2 first,
	w.gather(s, 0, h)     // then the normals again
}
