// Package hp implements classical Hazard Pointers (Michael, TPDS 2004): a
// thread publishes the handle it is about to dereference and re-validates
// that the source location still holds it. Reclamation scans gather all
// published handles and free retired blocks not among them.
//
// Paper mapping: hazard pointers are the baseline API the paper
// standardises on (§2.1) and the "HP" series of every evaluation figure
// (§5). Like Hazard Eras, the protect loop is only lock-free — the
// re-validation retries for as long as writers keep swinging the source
// location — which is the progress gap WFE closes.
//
// Reservations here hold link values with mark bits stripped: protection is
// per block, independent of the logical-deletion bits a link may carry.
//
// The retire side — the per-thread retire list, scan cadence and telemetry
// — lives in the shared reclaim.Retirer; this package contributes only the
// hazard matrix and its identity Judge (Gather the published handles,
// CanFree whatever is not among them — Michael's scan).
package hp

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

type threadState struct {
	// dirty is one past the highest hazard index used since the last Clear.
	dirty int
	_     [64]byte
}

// HP is the Hazard Pointers scheme.
type HP struct {
	arena *mem.Arena
	cfg   reclaim.Config
	rt    *reclaim.Retirer

	hazards   []atomic.Uint64 // row-major [MaxThreads][MaxHEs] handles; 0 = none
	rowStride int
	threads   []threadState
}

var _ reclaim.Scheme = (*HP)(nil)
var _ reclaim.Judge = (*HP)(nil)

// New creates a Hazard Pointers scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *HP {
	cfg = cfg.Defaults()
	stride := (cfg.MaxHEs + 7) &^ 7
	h := &HP{
		arena:     arena,
		cfg:       cfg,
		hazards:   make([]atomic.Uint64, cfg.MaxThreads*stride),
		rowStride: stride,
		threads:   make([]threadState, cfg.MaxThreads),
	}
	h.rt = reclaim.NewRetirer(arena, cfg, h)
	return h
}

// Name implements reclaim.Scheme.
func (h *HP) Name() string { return "HP" }

// Begin implements reclaim.Scheme; Hazard Pointers needs no prologue.
func (h *HP) Begin(tid int) {}

// Arena implements reclaim.Scheme.
func (h *HP) Arena() *mem.Arena { return h.arena }

// Retirer implements reclaim.Scheme.
func (h *HP) Retirer() *reclaim.Retirer { return h.rt }

func (h *HP) hazard(tid, j int) *atomic.Uint64 {
	return &h.hazards[tid*h.rowStride+j]
}

// GetProtected publishes the handle read from src and re-reads src to
// validate the publication (the classical protect loop; lock-free).
func (h *HP) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	if t := &h.threads[tid]; index >= t.dirty {
		t.dirty = index + 1
	}
	hz := h.hazard(tid, index)
	v := src.Load()
	for steps := uint64(1); ; steps++ {
		hz.Store(pack.Handle(v))
		again := src.Load()
		if again == v {
			h.rt.RecordSteps(tid, steps)
			return v
		}
		v = again
	}
}

// TryAlloc stamps no era: Hazard Pointers tracks identities, not
// lifespans, and has no era clock to tick. Arena exhaustion reports
// (0, false).
func (h *HP) TryAlloc(tid int) (mem.Handle, bool) {
	return h.arena.TryAlloc(tid)
}

// Retire hands the block to the shared retire-side runtime, which scans
// every CleanupFreq retirements through this package's Judge.
func (h *HP) Retire(tid int, blk mem.Handle) {
	h.arena.SetRetireEra(blk, 0)
	h.rt.Retire(tid, blk)
}

// BeginBatch implements reclaim.Scheme and reports false: a hazard slot
// protects exactly one node identity, so no single span can cover a batch
// — the runner must Clear between items and let each operation's
// GetProtected calls rotate hazard slots per node, exactly as in the
// per-op path. Batching under HP amortizes the lease and the retire
// cadence, never the protection itself.
func (h *HP) BeginBatch(tid int) bool { return false }

// EndBatch implements reclaim.Scheme: the trailing Clear.
func (h *HP) EndBatch(tid int) { h.Clear(tid) }

// RetireBatch implements reclaim.Scheme: HP tracks identities, not
// lifespans, so the blocks carry a zero stamp straight into the runtime's
// amortized retire path.
func (h *HP) RetireBatch(tid int, blks []mem.Handle) {
	for _, blk := range blks {
		h.arena.SetRetireEra(blk, 0)
	}
	h.rt.RetireBatch(tid, blks)
}

// Clear resets the hazard slots used since the previous Clear.
func (h *HP) Clear(tid int) {
	t := &h.threads[tid]
	for j := 0; j < t.dirty; j++ {
		hz := h.hazard(tid, j)
		if hz.Load() != 0 {
			hz.Store(0)
		}
	}
	t.dirty = 0
}

// Gather implements reclaim.Judge: snapshot every published hazard —
// the first half of Michael's scan.
func (h *HP) Gather(tid int, s *reclaim.Snapshot) {
	for i := 0; i < h.cfg.MaxThreads; i++ {
		for j := 0; j < h.cfg.MaxHEs; j++ {
			if v := h.hazard(i, j).Load(); v != 0 {
				s.AddEra(v)
			}
		}
	}
}

// CanFree implements reclaim.Judge: a retired block is free exactly when
// its handle is not among the gathered hazards (identity membership, not a
// lifespan test — HP tracks what is pointed at, not when).
func (h *HP) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.HandleReserved(blk)
}

// Unreclaimed implements reclaim.Scheme.
func (h *HP) Unreclaimed() int { return h.rt.Unreclaimed() }
