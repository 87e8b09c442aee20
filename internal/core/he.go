package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// HE is Hazard Eras (Ramalhete & Correia, SPAA 2017), the lock-free scheme
// WFE extends, exactly as reproduced in the paper's Figure 1 — including
// the retire() race fix the paper mentions applying (re-reading the global
// era before deciding to advance it).
//
// Paper mapping: Figure 1 (§2.3) line for line — get_protected's
// stabilisation loop, retire's era stamping, and cleanup's reservation
// scan. The unbounded get_protected loop here is the paper's motivating
// problem; its per-thread worst case is observable through MaxSteps, and
// examples/boundedsteps turns the difference into a latency table.
//
// Reservations are packed {era, tag} words (pack.EraTag), the layout WFE
// needs; HE's tags stay 0.
type HE struct {
	clock
	cfg reclaim.Config
	rt  *reclaim.Retirer

	// reservations is row-major [MaxThreads][MaxHEs+specials] of packed
	// EraTag words, rows padded to a cache-line multiple. The special
	// columns after MaxHEs are WFE's helper reservations.
	reservations []atomic.Uint64
	rowStride    int
}

var _ reclaim.Scheme = (*HE)(nil)
var _ reclaim.Judge = (*HE)(nil)
var _ reclaim.PreScanner = (*HE)(nil)

// NewHE creates a Hazard Eras scheme over the given arena.
func NewHE(arena *mem.Arena, cfg reclaim.Config) *HE {
	h := &HE{}
	h.init(arena, cfg, 0, h)
	return h
}

// init builds the scheme with specials extra reservation columns per
// thread, judged for the Retirer by judge — the outermost scheme.
func (h *HE) init(arena *mem.Arena, cfg reclaim.Config, specials int, judge reclaim.Judge) {
	cfg = cfg.Defaults()
	h.cfg = cfg
	h.clock.init(arena, cfg)
	h.rowStride = (cfg.MaxHEs + specials + 7) &^ 7 // round the row up to a cache line
	h.reservations = make([]atomic.Uint64, cfg.MaxThreads*h.rowStride)
	inf := uint64(pack.MakeEraTag(pack.Inf, 0))
	for i := range h.reservations {
		h.reservations[i].Store(inf)
	}
	h.rt = reclaim.NewRetirer(arena, cfg, judge)
}

// Name implements reclaim.Scheme.
func (h *HE) Name() string { return "HE" }

// Begin implements reclaim.Scheme; era schemes need no prologue.
func (h *HE) Begin(tid int) {}

// Retirer implements reclaim.Scheme.
func (h *HE) Retirer() *reclaim.Retirer { return h.rt }

func (h *HE) resv(tid, j int) *atomic.Uint64 {
	return &h.reservations[tid*h.rowStride+j]
}

// GetProtected is the paper's Figure 1 loop: publish the era observed while
// reading until the global era stops moving. Lock-free, not wait-free —
// this is precisely the loop WFE bounds. Each call's iteration count feeds
// the shared step histogram (the unboundedness, observable).
func (h *HE) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	if t := &h.threads[tid]; index >= t.dirty {
		t.dirty = index + 1
	}
	r := h.resv(tid, index)
	prevEra := pack.EraTag(r.Load()).Era()
	for steps := uint64(1); ; steps++ {
		ret := src.Load()
		newEra := h.era.Load()
		if prevEra == newEra {
			h.rt.RecordSteps(tid, steps)
			return ret
		}
		r.Store(uint64(pack.MakeEraTag(newEra, 0)))
		prevEra = newEra
	}
}

// MaxSteps reports the worst protect-loop iteration count observed by any
// thread for a single GetProtected call.
func (h *HE) MaxSteps() uint64 { return h.rt.MaxSteps() }

// TryAlloc implements the paper's alloc_block: the era cadence ticks,
// then the block is stamped with its allocation era.
func (h *HE) TryAlloc(tid int) (mem.Handle, bool) {
	if h.allocDue(tid) {
		h.tick(tid)
	}
	return h.alloc(tid)
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook.
func (h *HE) AdvanceClock(tid int) { h.tick(tid) }

// Retire implements the paper's retire: stamp the retire era and hand the
// block to the shared retire-side runtime, whose gated scan runs PreScan
// first.
func (h *HE) Retire(tid int, blk mem.Handle) {
	h.stampRetire(blk)
	h.rt.Retire(tid, blk)
}

// PreScan implements reclaim.PreScanner — the paper's retire() race fix:
// the era is only advanced if the triggering block's retire era still
// equals the global era.
func (h *HE) PreScan(tid int, blk mem.Handle) {
	if h.arena.RetireEra(blk) == h.era.Load() {
		h.tick(tid)
	}
}

// BeginBatch implements reclaim.Scheme: era reservations stay published
// until Clear, so the slots a batch's GetProtected calls fill remain valid
// across items — one span per batch, no prologue needed. Holding the
// reservations across the batch is the same conservatism as one long
// operation. Under WFE a slow path inside a batch publishes and completes
// its request exactly as in the per-op path.
func (h *HE) BeginBatch(tid int) bool { return true }

// EndBatch implements reclaim.Scheme: the batch-wide Clear.
func (h *HE) EndBatch(tid int) { h.Clear(tid) }

// RetireBatch implements reclaim.Scheme: stamp every block with the era
// read once at submission and hand the burst to the runtime's amortized
// retire path; PreScan's era advance still runs, gated once per burst.
func (h *HE) RetireBatch(tid int, blks []mem.Handle) {
	h.stampRetireBatch(blks)
	h.rt.RetireBatch(tid, blks)
}

// Clear implements the paper's clear: all reservations back to ∞, tags
// preserved so WFE's stale helpers from completed cycles keep failing
// their CAS. Only indices used since the previous Clear need resetting.
func (h *HE) Clear(tid int) {
	t := &h.threads[tid]
	for j := 0; j < t.dirty; j++ {
		r := h.resv(tid, j)
		cur := pack.EraTag(r.Load())
		if cur.Era() != pack.Inf {
			r.Store(uint64(cur.WithEra(pack.Inf)))
		}
	}
	t.dirty = 0
}

// Gather implements reclaim.Judge: snapshot the published eras once per
// scan. The snapshot can only keep more blocks than Figure 1's per-block
// re-scan (a reservation cleared mid-scan is still honoured); a
// reservation published after the snapshot cannot protect an
// already-retired block, by the same argument that makes the per-block
// scan sound.
func (h *HE) Gather(tid int, s *reclaim.Snapshot) { h.gather(s, 0, h.cfg.MaxHEs) }

// gather appends the non-∞ eras of reservation columns [js, je) across all
// threads to the snapshot.
func (h *HE) gather(s *reclaim.Snapshot, js, je int) {
	for i := 0; i < h.cfg.MaxThreads; i++ {
		for j := js; j < je; j++ {
			if era := pack.EraTag(h.resv(i, j).Load()).Era(); era != pack.Inf {
				s.AddEra(era)
			}
		}
	}
}

// CanFree implements reclaim.Judge: blk may go when no gathered era lands
// in its [alloc, retire] lifespan.
func (h *HE) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.EraReserved(h.arena.Eras(blk))
}

// Unreclaimed implements reclaim.Scheme.
func (h *HE) Unreclaimed() int { return h.rt.Unreclaimed() }
