package wfe

import (
	"runtime"
	"testing"

	"wfe/internal/mem"
)

// TestFreedValuesDropped checks the value-slab lifecycle: the arena free
// hook must zero a block's value when the block is recycled, so the number
// of live values in the slab never exceeds the number of live blocks —
// without it, a drained structure pins up to Capacity dead payloads as GC
// roots.
func TestFreedValuesDropped(t *testing.T) {
	d, err := NewDomain[string](Options{
		Capacity:    1 << 12,
		MaxGuards:   1,
		EraFreq:     8,
		CleanupFreq: 4,
		Debug:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	defer g.Release()
	s := NewStack[string](d)
	for i := 0; i < 2000; i++ {
		if err := s.TryPushGuarded(g, "payload"); err != nil {
			t.Fatal(err)
		}
		s.PopGuarded(g)
	}

	tel := d.Telemetry()
	if tel.Frees == 0 {
		t.Fatal("churn produced no frees; the test exercised nothing")
	}
	// Walk the value slab up to the bump high-water: the chunks holding
	// those values are the materialised ones, and no chunk past it exists.
	nonzero := uint64(0)
	for i := uint64(0); i < d.arena.Stats().Bumped; i++ {
		if *d.vals.At(i) != "" {
			nonzero++
		}
	}
	// Live blocks (including retired-but-not-yet-freed) may hold values;
	// freed blocks must not.
	if nonzero > tel.InUse {
		t.Fatalf("%d values alive in the slab but only %d blocks in use (%d freed blocks kept their payloads)",
			nonzero, tel.InUse, nonzero-tel.InUse)
	}
}

// wfQueues builds each wait-free queue's shared typed layer on d.
var wfQueues = []struct {
	name string
	mk   func(d *Domain[int]) *nodeQueue[int]
}{
	{"WFQueue", func(d *Domain[int]) *nodeQueue[int] { return &NewWFQueue(d).nodeQueue }},
	{"TurnQueue", func(d *Domain[int]) *nodeQueue[int] { return &NewTurnQueue(d).nodeQueue }},
}

// TestQueueNodeValuesMaterialised checks that a block's value chunk exists
// whichever path allocated the block. The wait-free queues allocate their
// nodes through allocHandle, never through Guard.Alloc, yet keep each
// value in its node's value-slab entry, which the free hook zeroes when
// the node is reclaimed. The chunk-0 fill stays allocated, so every queue
// node is a block the bump allocator hands out in chunk 1.
func TestQueueNodeValuesMaterialised(t *testing.T) {
	for _, tc := range wfQueues {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDomain[int](Options{Capacity: 2 * mem.ChunkSize, MaxGuards: 1, Debug: true})
			if err != nil {
				t.Fatal(err)
			}
			q := tc.mk(d)
			g := d.Guard()
			for i := 0; i < mem.ChunkSize-1; i++ { // chunk 0 after the sentinel
				g.Alloc(i)
			}
			const n = 64
			for i := 0; i < n; i++ {
				if err := q.TryEnqueueGuarded(g, i); err != nil {
					t.Fatal(err)
				}
			}
			if got := d.arena.Stats().Bumped; got != mem.ChunkSize+n {
				t.Fatalf("bump high-water %d, want %d: the enqueues did not take one chunk-1 block each", got, mem.ChunkSize+n)
			}
			for i := 0; i < n; i++ {
				if v, ok := q.DequeueGuarded(g); !ok || v != i {
					t.Fatalf("dequeue %d = (%d, %v), want (%d, true)", i, v, ok, i)
				}
			}
			g.Release()
			d.Scavenge()
			freed := 0
			for h := mem.Handle(mem.ChunkSize + 1); h <= mem.ChunkSize+n; h++ {
				if !d.arena.Live(h) {
					freed++
				}
			}
			if freed == 0 {
				t.Fatal("no queue node in chunk 1 was freed; the test exercised nothing")
			}
		})
	}
}

// TestQueueOneBlockPerValue checks that a wait-free queue enqueue
// allocates exactly one block, the node that carries the value, and that
// a drained queue pins no value: the nodes the queue and its dequeuers
// still hold have zero value-slab entries.
func TestQueueOneBlockPerValue(t *testing.T) {
	for _, tc := range wfQueues {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDomain[int](Options{Capacity: 1 << 12, MaxGuards: 1, Debug: true})
			if err != nil {
				t.Fatal(err)
			}
			q := tc.mk(d)
			g := d.Guard()
			defer g.Release()
			const n = 100
			before := d.Telemetry().Allocs
			for i := 1; i <= n; i++ {
				if err := q.TryEnqueueGuarded(g, i); err != nil {
					t.Fatal(err)
				}
			}
			if got := d.Telemetry().Allocs - before; got != n {
				t.Fatalf("%d enqueues allocated %d blocks, want %d", n, got, n)
			}
			for i := 1; i <= n; i++ {
				if v, ok := q.DequeueGuarded(g); !ok || v != i {
					t.Fatalf("dequeue %d = (%d, %v), want (%d, true)", i, v, ok, i)
				}
			}
			for h := mem.Handle(1); h <= d.arena.Stats().Bumped; h++ {
				if v := *d.vals.At(h - 1); d.arena.Live(h) && v != 0 {
					t.Errorf("live block %d of the drained queue still holds value %d", h, v)
				}
			}
		})
	}
}

// TestNewDomainCommitsNoCapacity checks that a default Domain, 2^20 blocks
// of Capacity, allocates under 1 MB before its first block: the arena and
// the value slab commit their chunks only as the bump allocator reaches
// them.
func TestNewDomainCommitsNoCapacity(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDomain[uint64](Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1e6 {
		t.Fatalf("NewDomain(Options{}) allocated %d bytes before its first block, want < 1 MB", got)
	}
	runtime.KeepAlive(d)
}
