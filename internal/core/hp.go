package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// HP is classical Hazard Pointers (Michael, TPDS 2004): a thread publishes
// the handle it is about to dereference and re-validates that the source
// location still holds it. Reclamation scans gather all published handles
// and free retired blocks not among them.
//
// Paper mapping: hazard pointers are the baseline API the paper
// standardises on (§2.1) and the "HP" series of every evaluation figure
// (§5). Like Hazard Eras, the protect loop is only lock-free — the
// re-validation retries for as long as writers keep swinging the source
// location — which is the progress gap WFE closes.
//
// HP is HE's board publishing the handle read instead of the era: one
// EraTag word per index, with the same dirty-index Clear and the same
// gather. Reservations hold link values with mark bits stripped:
// protection is per block, independent of the logical-deletion bits a link
// may carry. HP tracks identities, not lifespans, so it never starts the
// clock and its stamps read 0.
type HP struct {
	base
}

var _ reclaim.Scheme = (*HP)(nil)
var _ reclaim.Judge = (*HP)(nil)

// NewHP creates a Hazard Pointers scheme over the given arena.
func NewHP(arena *mem.Arena, cfg reclaim.Config) *HP {
	h := &HP{}
	h.init(h, "HP", arena, cfg)
	h.board.init(h.cfg.MaxThreads, h.cfg.MaxHEs, uint64(pack.MakeEraTag(pack.Inf, 0)))
	return h
}

// Begin implements reclaim.Scheme; Hazard Pointers needs no prologue.
func (h *HP) Begin(tid int) {}

// GetProtected publishes the handle read from src and re-reads src to
// validate the publication (the classical protect loop; lock-free).
func (h *HP) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	h.dirty(tid, index)
	r := h.resv(tid, index)
	v := src.Load()
	for steps := uint64(1); ; steps++ {
		r.Store(uint64(pack.MakeEraTag(pack.Handle(v), 0)))
		again := src.Load()
		if again == v {
			h.rt.RecordSteps(tid, steps)
			return v
		}
		v = again
	}
}

// Clear resets the hazard slots used since the previous Clear.
func (h *HP) Clear(tid int) { h.clearSlots(tid) }

// Gather implements reclaim.Judge: snapshot every published hazard —
// the first half of Michael's scan.
func (h *HP) Gather(tid int, s *reclaim.Snapshot) { h.gatherSlots(s, 0, h.cfg.MaxHEs) }

// CanFree implements reclaim.Judge: a retired block is free exactly when
// its handle is not among the gathered hazards (identity membership, not a
// lifespan test — HP tracks what is pointed at, not when).
func (h *HP) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.HandleReserved(blk)
}
