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
// problem; its per-thread worst case is observable through the Retirer's
// MaxSteps, and
// examples/boundedsteps turns the difference into a latency table.
//
// Reservations are packed {era, tag} words (pack.EraTag), one board column
// per index, the layout WFE needs; HE's tags stay 0. The special columns
// after MaxHEs are WFE's helper reservations.
type HE struct {
	base
}

var _ reclaim.Scheme = (*HE)(nil)
var _ reclaim.Judge = (*HE)(nil)
var _ reclaim.PreScanner = (*HE)(nil)

// NewHE creates a Hazard Eras scheme over the given arena.
func NewHE(arena *mem.Arena, cfg reclaim.Config) *HE {
	h := &HE{}
	h.init(h, "HE", arena, cfg, 0, h.tick)
	return h
}

// init builds the scheme s (HE, or the WFE embedding it) with specials
// extra reservation columns per thread and its clock advanced by advance.
func (h *HE) init(s reclaim.Scheme, name string, arena *mem.Arena, cfg reclaim.Config, specials int, advance func(int)) {
	h.base.init(s, name, arena, cfg)
	h.board.init(h.cfg.MaxThreads, h.cfg.MaxHEs+specials, uint64(pack.MakeEraTag(pack.Inf, 0)))
	h.start(max(1, h.cfg.InitialEra), advance)
}

// Begin implements reclaim.Scheme; era schemes need no prologue.
func (h *HE) Begin(tid int) {}

// GetProtected is the paper's Figure 1 loop: publish the era observed while
// reading until the global era stops moving. Lock-free, not wait-free —
// this is precisely the loop WFE bounds. Each call's iteration count feeds
// the shared step histogram (the unboundedness, observable).
func (h *HE) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	h.dirty(tid, index)
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

// PreScan implements reclaim.PreScanner — the paper's retire() race fix
// (Figure 4, lines 77-85 under WFE): the era is only advanced if the
// triggering block's retire era still equals the global era.
func (h *HE) PreScan(tid int, blk mem.Handle) {
	if h.arena.RetireEra(blk) == h.era.Load() {
		h.advance(tid)
	}
}

// Clear implements the paper's clear.
func (h *HE) Clear(tid int) { h.clearSlots(tid) }

// Gather implements reclaim.Judge: snapshot the published eras once per
// scan. The snapshot can only keep more blocks than Figure 1's per-block
// re-scan (a reservation cleared mid-scan is still honoured); a
// reservation published after the snapshot cannot protect an
// already-retired block, by the same argument that makes the per-block
// scan sound.
func (h *HE) Gather(tid int, s *reclaim.Snapshot) { h.gatherSlots(s, 0, h.cfg.MaxHEs) }

// CanFree implements reclaim.Judge: blk may go when no gathered era lands
// in its [alloc, retire] lifespan.
func (h *HE) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.EraReserved(h.arena.Eras(blk))
}
