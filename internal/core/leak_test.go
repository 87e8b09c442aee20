package core

import (
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

func TestLeakBaseline(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 64, MaxThreads: 2, Debug: true})
	l := NewLeak(a, reclaim.Config{MaxThreads: 2})

	if l.Name() != "Leak" || l.Arena() != a {
		t.Fatal("identity accessors broken")
	}

	var root atomic.Uint64
	h := reclaim.MustAlloc(l, 0)
	root.Store(h)
	l.Begin(0)
	if got := l.GetProtected(0, &root, 0, 0); got != h {
		t.Fatalf("GetProtected = %d, want %d", got, h)
	}
	l.Clear(0)

	l.Retire(0, h)
	l.Retire(1, reclaim.MustAlloc(l, 1))
	if !a.Live(h) {
		t.Fatal("leak baseline freed a block")
	}
	if l.Unreclaimed() != 2 {
		t.Fatalf("unreclaimed = %d, want 2", l.Unreclaimed())
	}
	if a.Stats().Frees != 0 {
		t.Fatal("leak baseline performed frees")
	}
}
