package mem

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// chunks counts the slab's materialised chunks.
func (s *Slab[E]) chunks() int {
	n := 0
	for i := range s.dir {
		if s.dir[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestChunksMaterialiseOnBump checks that an arena commits slot memory only
// as its bump allocator reaches each chunk: none before the first
// allocation, ceil(k/ChunkSize) after k bump allocations, none for
// allocations served from the free lists, and the grow hook once per chunk.
func TestChunksMaterialiseOnBump(t *testing.T) {
	a := New(Config{Capacity: 1 << 20, MaxThreads: 1})
	hooks := 0
	a.SetGrowHook(func(uint64) { hooks++ })
	if n := a.slots.chunks(); n != 0 || hooks != 0 {
		t.Fatalf("fresh arena holds %d chunks (%d grow hooks), want 0", n, hooks)
	}
	var hs []Handle
	for _, k := range []int{1, 2, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 5} {
		for len(hs) < k {
			hs = append(hs, a.Alloc(0))
		}
		want := (k + ChunkSize - 1) / ChunkSize
		if n := a.slots.chunks(); n != want || hooks != want {
			t.Fatalf("after %d bump allocations: %d chunks, %d grow hooks; want %d", k, n, hooks, want)
		}
	}
	for _, h := range hs {
		a.Free(0, h)
	}
	for range hs {
		a.Alloc(0)
	}
	if n, want := a.slots.chunks(), (len(hs)+ChunkSize-1)/ChunkSize; n != want || hooks != want {
		t.Fatalf("reuse from the free lists grew the slab: %d chunks, %d grow hooks; want %d", n, hooks, want)
	}
	if got := a.Stats().Bumped; got != uint64(len(hs)) {
		t.Fatalf("bump high-water = %d, want %d", got, len(hs))
	}
}

// TestConcurrentFirstTouch races 8 goroutines through the first blocks of
// one chunk of a fresh arena, each writing its blocks' words and a value in
// a companion slab grown by the grow hook. Under -race a chunk published
// without ordering fails here; the handles must be distinct and live, and
// the census exact.
func TestConcurrentFirstTouch(t *testing.T) {
	const threads = 8
	const perThread = 16
	for round := 0; round < 50; round++ {
		a := New(Config{Capacity: 2 * ChunkSize, MaxThreads: threads, Debug: true})
		vals := NewSlab[uint64](a.Capacity())
		a.SetGrowHook(vals.Grow)
		start := make(chan struct{})
		got := make([][]Handle, threads)
		var wg sync.WaitGroup
		for tid := 0; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				<-start
				for i := 0; i < perThread; i++ {
					h := a.Alloc(tid)
					a.StoreWord(h, 0, h)
					*vals.At(h - 1) = h
					got[tid] = append(got[tid], h)
				}
			}(tid)
		}
		close(start)
		wg.Wait()
		seen := make(map[Handle]bool)
		for _, hs := range got {
			for _, h := range hs {
				if seen[h] {
					t.Fatalf("round %d: handle %d handed out twice", round, h)
				}
				seen[h] = true
				if !a.Live(h) || a.LoadWord(h, 0) != h || *vals.At(h - 1) != h {
					t.Fatalf("round %d: handle %d lost its state or writes", round, h)
				}
			}
		}
		c := a.Census()
		if c.Live != threads*perThread || c.BumpFree != c.Capacity-threads*perThread ||
			c.Cached+c.Global+c.Live+c.BumpFree != c.Capacity {
			t.Fatalf("round %d: census %+v, want %d live", round, c, threads*perThread)
		}
		if a.slots.chunks() != 1 || vals.chunks() != 1 {
			t.Fatalf("round %d: %d slot chunks and %d value chunks, want 1 each", round, a.slots.chunks(), vals.chunks())
		}
	}
}

// TestDebugRejectsHandleAboveHighWater checks that debug mode rejects a
// handle the arena never handed out as invalid, both in a materialised
// chunk and in one that does not exist, instead of reaching the slab.
func TestDebugRejectsHandleAboveHighWater(t *testing.T) {
	a := New(Config{Capacity: 2 * ChunkSize, MaxThreads: 1, Debug: true})
	a.Alloc(0)
	for _, h := range []Handle{2, ChunkSize + 1} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "invalid handle") {
					t.Errorf("LoadWord(%d) above the high-water: panic %q, want an invalid-handle panic", h, msg)
				}
			}()
			a.LoadWord(h, 0)
		}()
	}
}
