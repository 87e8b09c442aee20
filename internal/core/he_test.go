package core

import (
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newHE(t *testing.T, cfg reclaim.Config) (*HE, *mem.Arena) {
	t.Helper()
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 2
	}
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: cfg.MaxThreads, Debug: true})
	return NewHE(a, cfg), a
}

func TestRetireAdvancesEraOnlyWhenCurrent(t *testing.T) {
	// The paper's race fix: retire() advances the era only if the block's
	// retire era still equals the global era at the check.
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1, EraFreq: 1 << 30, CleanupFreq: 1})
	blk := reclaim.MustAlloc(h, 0)
	e0 := h.Era()
	h.Retire(0, blk)
	if h.Era() != e0+1 {
		t.Fatalf("era = %d, want %d (retire of current-era block must advance)", h.Era(), e0+1)
	}
}

func TestGetProtectedPublishesEra(t *testing.T) {
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1})
	var root atomic.Uint64
	blk := reclaim.MustAlloc(h, 0)
	root.Store(blk)
	h.era.Add(3) // force a reservation refresh
	got := h.GetProtected(0, &root, 2, 0)
	if got != blk {
		t.Fatalf("GetProtected = %d, want %d", got, blk)
	}
	if e := pack.EraTag(h.resv(0, 2).Load()); e != pack.MakeEraTag(h.Era(), 0) {
		t.Fatalf("reservation {era %d, tag %d}, want {%d, 0}", e.Era(), e.Tag(), h.Era())
	}
	h.Clear(0)
	if e := pack.EraTag(h.resv(0, 2).Load()).Era(); e != pack.Inf {
		t.Fatal("Clear left the reservation set")
	}
}

func TestMaxStepsGrowsUnderEraMovement(t *testing.T) {
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1})
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(h, 0))
	h.GetProtected(0, &root, 0, 0)
	if h.rt.MaxSteps() < 1 {
		t.Fatal("MaxSteps not recorded")
	}
}
