package core

import (
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newIBR(t *testing.T, threads int) (*IBR, *mem.Arena) {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
	return NewIBR(a, reclaim.Config{MaxThreads: threads, CleanupFreq: 1, EraFreq: 1}), a
}

func TestBeginResetsInterval(t *testing.T) {
	ib, _ := newIBR(t, 1)
	ib.era.Store(42)
	ib.Begin(0)
	iv := &ib.intervals[0]
	if iv.lower.Load() != 42 || iv.upper.Load() != 42 {
		t.Fatalf("interval = [%d,%d], want [42,42]", iv.lower.Load(), iv.upper.Load())
	}
	ib.Clear(0)
	if iv.lower.Load() != pack.Inf {
		t.Fatal("Clear did not release the interval")
	}
}

func TestGetProtectedStretchesUpper(t *testing.T) {
	ib, _ := newIBR(t, 1)
	ib.Begin(0)
	lo := ib.intervals[0].lower.Load()
	ib.era.Add(7)
	var root atomic.Uint64
	blk := reclaim.MustAlloc(ib, 0)
	root.Store(blk)
	if got := ib.GetProtected(0, &root, 0, 0); got != blk {
		t.Fatalf("GetProtected = %d", got)
	}
	iv := &ib.intervals[0]
	if iv.lower.Load() != lo {
		t.Fatal("lower bound moved during the operation")
	}
	if iv.upper.Load() != ib.Era() {
		t.Fatalf("upper = %d, want the current era %d", iv.upper.Load(), ib.Era())
	}
}
