package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// EBR is epoch-based reclamation (Fraser 2004): threads announce the
// global epoch on operation start; a retired block is freed two epochs
// after its retirement epoch, and the epoch only advances when every active
// thread has announced the current one. Reads are free of per-access
// overhead — the scheme the paper reports as fastest — but reclamation is
// blocking: one stalled active thread halts the epoch and memory grows
// without bound (the paper's motivation for bounded schemes; ablation A4
// reproduces this failure mode).
//
// Paper mapping: §2.2's discussion of EBR's blocking reclamation and the
// "EBR" series of the evaluation figures (§5). The paper's Table 1 places
// EBR at the opposite corner from WFE: cheapest reads, weakest memory
// bound.
//
// The epoch is the era clock, starting at 2, and each thread's
// announcement (epoch<<1 | active, 0 when quiescent) is its one board
// column. The judge needs no reservations: Gather stashes the scan's epoch
// and CanFree applies the two-epoch grace rule.
type EBR struct {
	base
}

var _ reclaim.Scheme = (*EBR)(nil)
var _ reclaim.Judge = (*EBR)(nil)
var _ reclaim.PreScanner = (*EBR)(nil)

// activeBit marks an announcement of a thread inside an operation.
const activeBit = 1

// NewEBR creates an EBR scheme over the given arena.
func NewEBR(arena *mem.Arena, cfg reclaim.Config) *EBR {
	e := &EBR{}
	e.init(e, "EBR", arena, cfg)
	e.board.init(e.cfg.MaxThreads, 1, 0)
	e.start(max(2, e.cfg.InitialEra), e.tryAdvance)
	return e
}

// Begin announces the current epoch and marks the thread active.
func (e *EBR) Begin(tid int) {
	e.resv(tid, 0).Store(e.era.Load()<<1 | activeBit)
}

// GetProtected under EBR is a plain load: the epoch announcement already
// protects everything reachable during the operation. Every call is one
// step by construction; recording it keeps the bounded-steps histograms
// comparable across all schemes.
func (e *EBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	e.rt.RecordSteps(tid, 1)
	return src.Load()
}

// Clear marks the thread quiescent.
func (e *EBR) Clear(tid int) {
	e.resv(tid, 0).Store(0)
}

// tryAdvance is the clock's advance: it bumps the global epoch iff every
// active thread has announced it. This is the blocking step: a stalled
// active announcement pins the epoch forever.
func (e *EBR) tryAdvance(tid int) {
	cur := e.era.Load()
	for i := 0; i < e.cfg.MaxThreads; i++ {
		a := e.resv(i, 0).Load()
		if a&activeBit != 0 && a>>1 != cur {
			return
		}
	}
	e.tickFrom(tid, cur)
}

// PreScan implements reclaim.PreScanner: attempt an epoch advance right
// before each gated cleanup scan, so retire-heavy phases keep the clock
// moving.
func (e *EBR) PreScan(tid int, blk mem.Handle) { e.tryAdvance(tid) }

// Gather implements reclaim.Judge. EBR gathers no reservations — the
// grace-period test needs only the scan's epoch, stashed as a scalar.
func (e *EBR) Gather(tid int, s *reclaim.Snapshot) {
	s.SetAux(0, e.era.Load())
}

// CanFree implements reclaim.Judge: a block retired at least two epochs
// before the scan's epoch is unreachable — no thread active in the current
// or previous epoch can hold it.
func (e *EBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return e.arena.RetireEra(blk)+2 <= s.Aux(0)
}
