package hp

import (
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newHP(t *testing.T, threads int) (*HP, *mem.Arena) {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
	return New(a, reclaim.Config{MaxThreads: threads, CleanupFreq: 1}), a
}

func TestProtectPublishesHandle(t *testing.T) {
	h, _ := newHP(t, 1)
	var root atomic.Uint64
	blk := reclaim.MustAlloc(h, 0)
	root.Store(blk)
	got := h.GetProtected(0, &root, 3, 0)
	if got != blk {
		t.Fatalf("GetProtected = %d, want %d", got, blk)
	}
	if hz := h.hazard(0, 3).Load(); hz != blk {
		t.Fatalf("hazard = %d, want %d", hz, blk)
	}
	h.Clear(0)
	if hz := h.hazard(0, 3).Load(); hz != 0 {
		t.Fatal("Clear left the hazard set")
	}
}

func TestProtectStripsMarkBits(t *testing.T) {
	// A marked link must publish the block's handle, not the marked value,
	// or the scan would fail to match it against retire-list entries.
	h, _ := newHP(t, 1)
	var root atomic.Uint64
	blk := reclaim.MustAlloc(h, 0)
	root.Store(blk | pack.MarkBit)
	got := h.GetProtected(0, &root, 0, 0)
	if got != blk|pack.MarkBit {
		t.Fatalf("GetProtected must return the raw link value, got %#x", got)
	}
	if hz := h.hazard(0, 0).Load(); hz != blk {
		t.Fatalf("hazard = %#x, want the clean handle %#x", hz, blk)
	}
}

func TestProtectFollowsConcurrentChange(t *testing.T) {
	// If the source changes between the read and the validation, the loop
	// must converge on the latest value, never returning a stale one.
	h, _ := newHP(t, 1)
	var root atomic.Uint64
	first := reclaim.MustAlloc(h, 0)
	second := reclaim.MustAlloc(h, 0)
	root.Store(first)
	// Simulate the change by swapping before the call (single-threaded
	// determinism; the concurrent interleaving is covered by the scheme
	// stress suite).
	root.Store(second)
	if got := h.GetProtected(0, &root, 0, 0); got != second {
		t.Fatalf("GetProtected = %d, want %d", got, second)
	}
}

func TestScanFreesOnlyUnprotected(t *testing.T) {
	h, a := newHP(t, 2)
	var root atomic.Uint64
	protected := reclaim.MustAlloc(h, 0)
	root.Store(protected)
	h.GetProtected(1, &root, 0, 0) // thread 1 pins it

	loose := reclaim.MustAlloc(h, 0)
	h.Retire(0, protected) // first retire triggers a scan
	h.Retire(0, loose)
	h.Retire(0, reclaim.MustAlloc(h, 0)) // scan again
	h.rt.Scan(0)

	if !a.Live(protected) {
		t.Fatal("protected block freed")
	}
	if a.Live(loose) {
		t.Fatal("unprotected block survived the scan")
	}

	h.Clear(1)
	h.rt.Scan(0)
	if a.Live(protected) {
		t.Fatal("block survived after hazard cleared")
	}
}

func TestUnreclaimedCountsRetireLists(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: 1, Debug: true})
	h := New(a, reclaim.Config{MaxThreads: 1, CleanupFreq: 1 << 30})
	h.Retire(0, reclaim.MustAlloc(h, 0)) // first retire scans (and frees)
	for i := 0; i < 5; i++ {
		h.Retire(0, reclaim.MustAlloc(h, 0))
	}
	if got := h.Unreclaimed(); got != 5 {
		t.Fatalf("unreclaimed = %d, want 5", got)
	}
}
