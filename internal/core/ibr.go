package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// interval is one padded reservation [lower, upper].
type interval struct {
	lower atomic.Uint64
	upper atomic.Uint64
	_     [48]byte
}

// closedIntervals returns n intervals, each closed ([Inf, Inf]).
func closedIntervals(n int) []interval {
	ivs := make([]interval, n)
	for i := range ivs {
		ivs[i].lower.Store(pack.Inf)
		ivs[i].upper.Store(pack.Inf)
	}
	return ivs
}

// gatherIntervals appends every open interval of set to the snapshot.
func gatherIntervals(s *reclaim.Snapshot, set []interval) {
	for i := range set {
		lower := set[i].lower.Load()
		if lower == pack.Inf {
			continue
		}
		s.AddInterval(lower, set[i].upper.Load())
	}
}

// IBR is 2GEIBR, the tagged-pointer-free variant of interval-based
// reclamation (Wen et al., PPoPP 2018) the paper benchmarks against. Every
// block carries a birth era and a retire era; every thread maintains one
// reservation interval [lower, upper] spanning its current operation. A
// retired block is freed when its lifespan interval overlaps no thread's
// reservation interval.
//
// Like Hazard Eras, the upper-bound refresh loop in GetProtected is
// lock-free, not wait-free; WFEIBR applies WFE's construction to it.
//
// Paper mapping: §2.4's description of interval-based reclamation and the
// "2GEIBR" series of the evaluation figures (§5). The retire-driven era
// advance rides the runtime's OnRetire hook.
type IBR struct {
	clock
	cfg       reclaim.Config
	rt        *reclaim.Retirer
	intervals []interval // normal per-thread reservations
}

var _ reclaim.Scheme = (*IBR)(nil)
var _ reclaim.Judge = (*IBR)(nil)
var _ reclaim.RetireObserver = (*IBR)(nil)

// NewIBR creates a 2GEIBR scheme over the given arena.
func NewIBR(arena *mem.Arena, cfg reclaim.Config) *IBR {
	ib := &IBR{}
	ib.init(arena, cfg, ib)
	return ib
}

// init builds the scheme, judged for the Retirer by judge — the outermost
// scheme.
func (ib *IBR) init(arena *mem.Arena, cfg reclaim.Config, judge reclaim.Judge) {
	cfg = cfg.Defaults()
	ib.cfg = cfg
	ib.clock.init(arena, cfg)
	ib.intervals = closedIntervals(cfg.MaxThreads)
	ib.rt = reclaim.NewRetirer(arena, cfg, judge)
}

// Name implements reclaim.Scheme.
func (ib *IBR) Name() string { return "2GEIBR" }

// Retirer implements reclaim.Scheme.
func (ib *IBR) Retirer() *reclaim.Retirer { return ib.rt }

// Begin starts a fresh reservation interval at the current era.
func (ib *IBR) Begin(tid int) {
	e := ib.era.Load()
	iv := &ib.intervals[tid]
	iv.upper.Store(e)
	iv.lower.Store(e)
}

// GetProtected stretches the thread's upper reservation until the global
// era stabilises across a read of src. Each call's iteration count feeds
// the shared step histogram — the same lock-free unboundedness as Hazard
// Eras', observable.
func (ib *IBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	iv := &ib.intervals[tid]
	prev := iv.upper.Load()
	for steps := uint64(1); ; steps++ {
		ret := src.Load()
		cur := ib.era.Load()
		if prev == cur {
			ib.rt.RecordSteps(tid, steps)
			return ret
		}
		iv.upper.Store(cur)
		prev = cur
	}
}

// Clear ends the operation's interval.
func (ib *IBR) Clear(tid int) {
	iv := &ib.intervals[tid]
	iv.lower.Store(pack.Inf)
	iv.upper.Store(pack.Inf)
}

// BeginBatch implements reclaim.Scheme: one reservation interval spans the
// whole batch — GetProtected (fast or slow path) keeps raising its upper
// bound as the era moves, so the open interval covers every block the
// batch touches. The cost is the same conservatism as one long operation:
// a wider interval for the scans to respect. WFE-IBR's helpers touch the
// interval only by raising its upper bound, which batching does not
// change.
func (ib *IBR) BeginBatch(tid int) bool {
	ib.Begin(tid)
	return true
}

// EndBatch implements reclaim.Scheme: close the batch's interval.
func (ib *IBR) EndBatch(tid int) { ib.Clear(tid) }

// RetireBatch implements reclaim.Scheme: stamp every block with the era
// read once at submission and hand the burst to the runtime's amortized
// retire path; the retire-driven era advance ticks once per burst through
// OnRetire.
func (ib *IBR) RetireBatch(tid int, blks []mem.Handle) {
	ib.stampRetireBatch(blks)
	ib.rt.RetireBatch(tid, blks)
}

// TryAlloc stamps the block's birth era after the periodic era advance.
func (ib *IBR) TryAlloc(tid int) (mem.Handle, bool) {
	if ib.allocDue(tid) {
		ib.tick(tid)
	}
	return ib.alloc(tid)
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook.
func (ib *IBR) AdvanceClock(tid int) { ib.tick(tid) }

// Retire stamps the retire era and hands the block to the shared
// retire-side runtime.
func (ib *IBR) Retire(tid int, blk mem.Handle) {
	ib.stampRetire(blk)
	ib.rt.Retire(tid, blk)
}

// OnRetire implements reclaim.RetireObserver: the era also advances on
// retirement (not just allocation) so that retire-heavy phases with no
// allocations still make reclamation progress.
func (ib *IBR) OnRetire(tid int, n uint64, blk mem.Handle) {
	if ib.retireDue(n) {
		ib.tick(tid)
	}
}

// Gather implements reclaim.Judge: snapshot the open reservation intervals
// once per scan (conservative in the same way as the per-block re-scan;
// see HE's Gather).
func (ib *IBR) Gather(tid int, s *reclaim.Snapshot) { gatherIntervals(s, ib.intervals) }

// CanFree implements reclaim.Judge: blk may go when its [birth, retire]
// lifespan overlaps none of the gathered intervals.
func (ib *IBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.IntervalReserved(ib.arena.Eras(blk))
}

// Unreclaimed implements reclaim.Scheme.
func (ib *IBR) Unreclaimed() int { return ib.rt.Unreclaimed() }
