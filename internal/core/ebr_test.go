package core

import (
	"testing"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

func newEBR(t *testing.T, threads int) (*EBR, *mem.Arena) {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
	return NewEBR(a, reclaim.Config{MaxThreads: threads, CleanupFreq: 1, EraFreq: 1}), a
}

func TestEpochAdvanceRequiresAllActiveCurrent(t *testing.T) {
	e, _ := newEBR(t, 2)
	ep := e.Era()

	e.Begin(0) // announces current epoch
	e.tryAdvance(0)
	if e.Era() != ep+1 {
		t.Fatalf("epoch = %d, want %d (all active threads current)", e.Era(), ep+1)
	}

	// Thread 0 is now active on the *old* epoch: the clock must stick.
	e.tryAdvance(0)
	if e.Era() != ep+1 {
		t.Fatalf("epoch advanced past a lagging active thread")
	}

	e.Begin(0) // re-announce at the new epoch
	e.tryAdvance(0)
	if e.Era() != ep+2 {
		t.Fatalf("epoch = %d, want %d", e.Era(), ep+2)
	}

	e.Clear(0) // quiescent threads do not block the clock
	e.tryAdvance(0)
	if e.Era() != ep+3 {
		t.Fatalf("epoch = %d, want %d after thread went quiescent", e.Era(), ep+3)
	}
}

func TestTwoEpochGracePeriod(t *testing.T) {
	e, a := newEBR(t, 1)
	blk := reclaim.MustAlloc(e, 0)
	ep := e.Era()
	a.SetRetireEra(blk, ep)
	// Stage the retired block directly (no cadence hooks, no epoch
	// advance) and drive the scans by hand.
	e.rt.Add(0, blk)

	e.rt.Scan(0)
	if !a.Live(blk) {
		t.Fatal("block freed in its retirement epoch")
	}
	e.era.Add(1)
	e.rt.Scan(0)
	if !a.Live(blk) {
		t.Fatal("block freed one epoch after retirement")
	}
	e.era.Add(1)
	e.rt.Scan(0)
	if a.Live(blk) {
		t.Fatal("block not freed two epochs after retirement")
	}
}

func TestGetProtectedIsPlainLoad(t *testing.T) {
	e, _ := newEBR(t, 1)
	var root = reclaim.MustAlloc(e, 0)
	loc := e.Arena().WordAddr(root, 0)
	loc.Store(42)
	e.Begin(0)
	if got := e.GetProtected(0, loc, 0, 0); got != 42 {
		t.Fatalf("GetProtected = %d", got)
	}
	e.Clear(0)
}

func TestUnreclaimedGrowsWhileStalled(t *testing.T) {
	e, _ := newEBR(t, 2)
	e.Begin(0) // stalled
	for i := 0; i < 100; i++ {
		e.Begin(1)
		e.Retire(1, reclaim.MustAlloc(e, 1))
		e.Clear(1)
	}
	if got := e.Unreclaimed(); got < 90 {
		t.Fatalf("unreclaimed = %d; epoch advanced despite stall", got)
	}
}
