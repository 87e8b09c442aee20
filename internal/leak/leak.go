// Package leak is the paper's "Leak Memory" baseline: Retire drops blocks on
// the floor. It bounds the cost every real scheme pays, and its arena usage
// grows with the number of retirements — size the arena accordingly.
//
// The baseline still retires through the shared reclaim.Retirer — in its
// judge-less mode, which counts retirements without storing blocks or
// running scans — so the Unreclaimed metric reads through the same path as
// every real scheme's.
package leak

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// Leak is the no-reclamation baseline.
type Leak struct {
	arena *mem.Arena
	rt    *reclaim.Retirer
}

var _ reclaim.Scheme = (*Leak)(nil)

// New creates the leaking baseline over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *Leak {
	return &Leak{arena: arena, rt: reclaim.NewRetirer(arena, cfg, nil)}
}

// Name implements reclaim.Scheme.
func (l *Leak) Name() string { return "Leak" }

// Begin implements reclaim.Scheme.
func (l *Leak) Begin(tid int) {}

// Arena implements reclaim.Scheme.
func (l *Leak) Arena() *mem.Arena { return l.arena }

// Retirer implements reclaim.Scheme.
func (l *Leak) Retirer() *reclaim.Retirer { return l.rt }

// GetProtected is a plain load: leaked blocks are never reused, so any
// handle ever observed stays valid.
func (l *Leak) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	return src.Load()
}

// Retire leaks the block.
func (l *Leak) Retire(tid int, blk mem.Handle) {
	l.arena.SetRetireEra(blk, 0)
	l.rt.Retire(tid, blk)
}

// Clear implements reclaim.Scheme.
func (l *Leak) Clear(tid int) {}

// BeginBatch implements reclaim.Scheme: leaked blocks are never reused, so
// a batch needs no re-protection between items — a single (empty) span
// suffices.
func (l *Leak) BeginBatch(tid int) bool { return true }

// EndBatch implements reclaim.Scheme.
func (l *Leak) EndBatch(tid int) {}

// RetireBatch leaks the whole burst through the runtime's judge-less
// counting path — one cadence step, nothing stored.
func (l *Leak) RetireBatch(tid int, blks []mem.Handle) {
	for _, blk := range blks {
		l.arena.SetRetireEra(blk, 0)
	}
	l.rt.RetireBatch(tid, blks)
}

// TryAlloc implements reclaim.Scheme: arena exhaustion reports (0, false).
// For the leak baseline exhaustion is terminal — nothing is ever freed —
// so callers should not retry.
func (l *Leak) TryAlloc(tid int) (mem.Handle, bool) {
	return l.arena.TryAlloc(tid)
}

// Unreclaimed reports the total number of leaked blocks. The paper excludes
// the leak baseline from unreclaimed-object plots; the harness does too.
func (l *Leak) Unreclaimed() int { return l.rt.Unreclaimed() }
