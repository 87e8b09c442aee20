// Quickstart: the paper's usage example (Figure 2) — Treiber's lock-free
// stack managed by Wait-Free Eras, on the public Domain API.
//
// It shows the guard runtime's three acquisition paths in one sitting:
//
//   - guardless: s.TryPush(v) / s.Pop() lease a reclamation slot per
//     operation from the Domain's lock-free guard pool — no Guard in
//     sight, and goroutines may vastly outnumber MaxGuards,
//   - pinned: d.Pin()/d.Unpin(g) hoist that lease out of a hot loop and
//     run the Guarded method variants on it,
//   - explicit: d.Guard()/g.Release() for a fixed worker set sized at
//     configuration time.
//
// Freed blocks are recycled: the arena census stays flat no matter how
// many operations run, and Debug mode turns any use-after-free into a
// panic. A push returns ErrArenaExhausted only if the arena stays full,
// which this workload never approaches.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"wfe"
)

func main() {
	const workers = 4

	// The arena bounds memory: 4096 node slots serve millions of operations
	// because WFE recycles retired nodes promptly. MaxGuards defaults to
	// GOMAXPROCS; the guard runtime shares those slots among any number of
	// goroutines.
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:   wfe.WFE,
		Capacity: 4096,
		Debug:    true,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()
	s := wfe.NewStack[uint64](d)

	// Guardless taste: LIFO order, no Guard anywhere.
	for v := uint64(1); v <= 3; v++ {
		if err := s.TryPush(v); err != nil {
			panic(err)
		}
	}
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		fmt.Printf("popped %d\n", v)
	}

	// Concurrent churn on the pinned path: every worker pins one guard and
	// pushes/pops 100k times through the Guarded variants — the guardless
	// path's flexibility without its per-operation lease.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := d.Pin()
			defer d.Unpin(g)
			for i := 0; i < 100_000; i++ {
				if err := s.TryPushGuarded(g, uint64(w)<<32|uint64(i)); err != nil {
					panic(err)
				}
				s.PopGuarded(g)
			}
		}(w)
	}
	wg.Wait()

	t := d.Telemetry()
	fmt.Printf("\nafter %d ops: allocs=%d frees=%d live=%d (arena capacity %d)\n",
		2*workers*100_000, t.Allocs, t.Frees, t.InUse, t.Capacity)
	fmt.Printf("global era advanced to %d; slow paths taken: %d\n", t.Era, t.SlowPaths)
	fmt.Printf("guard pool: %d acquisitions, %d cache hits, %d misses, %d parks\n",
		t.GuardAcquires, t.GuardCacheHits, t.GuardCacheMisses, t.GuardParks)
}
