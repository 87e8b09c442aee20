package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// Leak is the paper's "Leak Memory" baseline: Retire drops blocks on the
// floor. It bounds the cost every real scheme pays, and its arena usage
// grows with the number of retirements — size the arena accordingly; for
// it exhaustion is terminal, since nothing is ever freed.
//
// Leak is no Judge, so its Retirer runs in the judge-less mode, which
// counts retirements without storing blocks or running scans: the
// Unreclaimed metric reads through the same path as every real scheme's.
// The paper excludes the baseline from unreclaimed-object plots; the
// harness does too.
type Leak struct {
	base
}

var _ reclaim.Scheme = (*Leak)(nil)

// NewLeak creates the leaking baseline over the given arena.
func NewLeak(arena *mem.Arena, cfg reclaim.Config) *Leak {
	l := &Leak{}
	l.init(l, "Leak", arena, cfg)
	return l
}

// Begin implements reclaim.Scheme.
func (l *Leak) Begin(tid int) {}

// GetProtected is a plain load: leaked blocks are never reused, so any
// handle ever observed stays valid.
func (l *Leak) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	return src.Load()
}

// Clear implements reclaim.Scheme.
func (l *Leak) Clear(tid int) {}
