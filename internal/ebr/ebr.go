// Package ebr implements epoch-based reclamation (Fraser 2004): threads
// announce the global epoch on operation start; a retired block is freed two
// epochs after its retirement epoch, and the epoch only advances when every
// active thread has announced the current one. Reads are free of per-access
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
// The retire side lives in the shared reclaim.Retirer; this package
// contributes the epoch clock and its threshold Judge (Gather the scan's
// epoch, CanFree whatever was retired at least two epochs before it).
package ebr

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

// announcement encoding: epoch<<1 | active.
const activeBit = 1

type threadState struct {
	allocCount uint64
	_          [64]byte
}

// EBR is the epoch-based reclamation scheme.
type EBR struct {
	arena       *mem.Arena
	cfg         reclaim.Config
	rt          *reclaim.Retirer
	globalEpoch atomic.Uint64
	announce    []atomic.Uint64 // one padded word per thread
	stride      int
	threads     []threadState
}

var _ reclaim.Scheme = (*EBR)(nil)
var _ reclaim.Judge = (*EBR)(nil)
var _ reclaim.PreScanner = (*EBR)(nil)

// New creates an EBR scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *EBR {
	cfg = cfg.Defaults()
	const stride = 8
	e := &EBR{
		arena:    arena,
		cfg:      cfg,
		announce: make([]atomic.Uint64, cfg.MaxThreads*stride),
		stride:   stride,
		threads:  make([]threadState, cfg.MaxThreads),
	}
	e.rt = reclaim.NewRetirer(arena, cfg, e)
	e.globalEpoch.Store(max(2, cfg.InitialEra))
	return e
}

// Name implements reclaim.Scheme.
func (e *EBR) Name() string { return "EBR" }

// Arena implements reclaim.Scheme.
func (e *EBR) Arena() *mem.Arena { return e.arena }

// Retirer implements reclaim.Scheme.
func (e *EBR) Retirer() *reclaim.Retirer { return e.rt }

// Epoch returns the global epoch.
func (e *EBR) Epoch() uint64 { return e.globalEpoch.Load() }

func (e *EBR) ann(tid int) *atomic.Uint64 { return &e.announce[tid*e.stride] }

// Begin announces the current epoch and marks the thread active.
func (e *EBR) Begin(tid int) {
	e.ann(tid).Store(e.globalEpoch.Load()<<1 | activeBit)
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
	e.ann(tid).Store(0)
}

// BeginBatch implements reclaim.Scheme: one epoch announcement covers a
// whole batch of operations (the announcement pins the epoch for as long
// as it stands, however many blocks the batch touches), so a single span
// suffices. Holding it across the batch delays the epoch advance exactly
// as one long operation would.
func (e *EBR) BeginBatch(tid int) bool {
	e.Begin(tid)
	return true
}

// EndBatch implements reclaim.Scheme: the batch-wide Clear.
func (e *EBR) EndBatch(tid int) { e.Clear(tid) }

// RetireBatch implements reclaim.Scheme: stamp every block with the epoch
// read once at submission — monotone, so ≥ the epoch at each unlink, a
// conservative lifespan — and hand the burst to the runtime's amortized
// retire path.
func (e *EBR) RetireBatch(tid int, blks []mem.Handle) {
	epoch := e.globalEpoch.Load()
	for _, blk := range blks {
		e.arena.SetRetireEra(blk, epoch)
	}
	e.rt.RetireBatch(tid, blks)
}

// TryAlloc allocates a block; epochs need no allocation stamp, but the
// epoch advance attempt keeps the clock moving on allocation-heavy phases,
// in line with the benchmark's ν parameter. Arena exhaustion reports
// (0, false).
func (e *EBR) TryAlloc(tid int) (mem.Handle, bool) {
	t := &e.threads[tid]
	if t.allocCount%uint64(e.cfg.EraFreq) == 0 {
		e.tryAdvance(tid)
	}
	t.allocCount++
	return e.arena.TryAlloc(tid)
}

// AdvanceClock attempts the global epoch advance out of the allocation
// cadence (reclaim.ClockAdvancer) — the emergency-reclamation hook. Like
// every EBR advance it only succeeds when no active thread lags the
// current epoch.
func (e *EBR) AdvanceClock(tid int) { e.tryAdvance(tid) }

// Retire tags the block with the current epoch and hands it to the shared
// retire-side runtime, which scans every CleanupFreq retirements.
func (e *EBR) Retire(tid int, blk mem.Handle) {
	e.arena.SetRetireEra(blk, e.globalEpoch.Load())
	e.rt.Retire(tid, blk)
}

// tryAdvance bumps the global epoch iff every active thread has announced
// it. This is the blocking step: a stalled active announcement pins the
// epoch forever.
func (e *EBR) tryAdvance(tid int) {
	cur := e.globalEpoch.Load()
	for i := 0; i < e.cfg.MaxThreads; i++ {
		a := e.ann(i).Load()
		if a&activeBit != 0 && a>>1 != cur {
			return
		}
	}
	if e.globalEpoch.CompareAndSwap(cur, cur+1) {
		e.cfg.Tracer.Emit(tid, trace.KindEraAdvance, cur+1, 0)
	}
}

// PreScan implements reclaim.PreScanner: attempt an epoch advance right
// before each gated cleanup scan, so retire-heavy phases keep the clock
// moving.
func (e *EBR) PreScan(tid int, blk mem.Handle) { e.tryAdvance(tid) }

// Gather implements reclaim.Judge. EBR gathers no reservations — the
// grace-period test needs only the scan's epoch, stashed as a scalar.
func (e *EBR) Gather(tid int, s *reclaim.Snapshot) {
	s.SetAux(0, e.globalEpoch.Load())
}

// CanFree implements reclaim.Judge: a block retired at least two epochs
// before the scan's epoch is unreachable — no thread active in the current
// or previous epoch can hold it.
func (e *EBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return e.arena.RetireEra(blk)+2 <= s.Aux(0)
}

// Unreclaimed implements reclaim.Scheme.
func (e *EBR) Unreclaimed() int { return e.rt.Unreclaimed() }
