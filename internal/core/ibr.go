package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

// The interval schemes' board columns: a reservation interval is two
// adjacent columns [lower, upper], a thread's own at normal and WFE-IBR's
// helper interval at special. A closed interval holds [Inf, Inf].
const (
	normal  = 0
	special = 2
)

// interval is one reservation interval on the board.
type interval struct{ lower, upper *atomic.Uint64 }

func (b *board) interval(tid, j int) interval {
	return interval{b.resv(tid, j), b.resv(tid, j+1)}
}

// gatherIntervals appends every open interval at column j to the snapshot.
func (b *base) gatherIntervals(s *reclaim.Snapshot, j int) {
	for i := 0; i < b.cfg.MaxThreads; i++ {
		iv := b.interval(i, j)
		lower := iv.lower.Load()
		if lower == pack.Inf {
			continue
		}
		s.AddInterval(lower, iv.upper.Load())
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
	base
}

var _ reclaim.Scheme = (*IBR)(nil)
var _ reclaim.Judge = (*IBR)(nil)
var _ reclaim.RetireObserver = (*IBR)(nil)

// NewIBR creates a 2GEIBR scheme over the given arena.
func NewIBR(arena *mem.Arena, cfg reclaim.Config) *IBR {
	ib := &IBR{}
	ib.init(ib, "2GEIBR", arena, cfg, 2, ib.tick)
	return ib
}

// init builds the scheme s (IBR, or the WFE-IBR embedding it) with cols
// interval columns per thread and its clock advanced by advance.
func (ib *IBR) init(s reclaim.Scheme, name string, arena *mem.Arena, cfg reclaim.Config, cols int, advance func(int)) {
	ib.base.init(s, name, arena, cfg)
	ib.board.init(ib.cfg.MaxThreads, cols, pack.Inf)
	ib.start(max(1, ib.cfg.InitialEra), advance)
}

// Begin starts a fresh reservation interval at the current era.
func (ib *IBR) Begin(tid int) {
	e := ib.era.Load()
	iv := ib.interval(tid, normal)
	iv.upper.Store(e)
	iv.lower.Store(e)
}

// GetProtected stretches the thread's upper reservation until the global
// era stabilises across a read of src. Each call's iteration count feeds
// the shared step histogram — the same lock-free unboundedness as Hazard
// Eras', observable.
func (ib *IBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	upper := ib.resv(tid, normal+1)
	prev := upper.Load()
	for steps := uint64(1); ; steps++ {
		ret := src.Load()
		cur := ib.era.Load()
		if prev == cur {
			ib.rt.RecordSteps(tid, steps)
			return ret
		}
		upper.Store(cur)
		prev = cur
	}
}

// Clear ends the operation's interval.
func (ib *IBR) Clear(tid int) {
	iv := ib.interval(tid, normal)
	iv.lower.Store(pack.Inf)
	iv.upper.Store(pack.Inf)
}

// OnRetire implements reclaim.RetireObserver: the era also advances on
// retirement (not just allocation) so that retire-heavy phases with no
// allocations still make reclamation progress. Under WFE-IBR the advance
// is incrementEra, so pending requests get helped first.
func (ib *IBR) OnRetire(tid int, n uint64, blk mem.Handle) {
	if ib.retireDue(n) {
		ib.advance(tid)
	}
}

// Gather implements reclaim.Judge: snapshot the open reservation intervals
// once per scan (conservative in the same way as the per-block re-scan;
// see HE's Gather).
func (ib *IBR) Gather(tid int, s *reclaim.Snapshot) { ib.gatherIntervals(s, normal) }

// CanFree implements reclaim.Judge: blk may go when its [birth, retire]
// lifespan overlaps none of the gathered intervals.
func (ib *IBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !s.IntervalReserved(ib.arena.Eras(blk))
}
