// The paper's wait-free workloads on the public API: the Kogan–Petrank
// queue (WFQueue), the CRTurn queue (TurnQueue), Michael's hash map
// (HashMap) and the Natarajan–Mittal BST (Tree) — the structures the
// paper's Figures 5–11 measure — all sharing one WFE Domain.
//
// The headline property: combined with WFE, the two queues are wait-free
// end to end, reclamation included — every operation, every protected
// read and every retire completes in a bounded number of steps. The
// program storms each structure through the guardless API from far more
// goroutines than the Domain has guards (the lease/parking path), checks
// exactly-once delivery on the queues and membership on the maps, and
// prints the reclamation census.
//
// Run with:
//
//	go run ./examples/waitfreeworkloads
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wfe"
)

const (
	guards     = 4
	goroutines = 16 // 4x oversubscribed: operations lease and park
	perWorker  = 50_000
	keyRange   = 1 << 10
)

func main() {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    wfe.WFE,
		Capacity:  1 << 20,
		MaxGuards: guards,
		Debug:     true, // any use-after-free panics instead of corrupting
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()

	wf := wfe.NewWFQueue[uint64](d)
	turn := wfe.NewTurnQueue[uint64](d)
	queues := []struct {
		name string
		enq  func(uint64) error
		deq  func() (uint64, bool)
	}{
		{"WFQueue (Kogan–Petrank)", wf.TryEnqueue, wf.Dequeue},
		{"TurnQueue (CRTurn)", turn.TryEnqueue, turn.Dequeue},
	}
	for _, q := range queues {
		var produced, consumed, delivered atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					v := uint64(w)<<32 | uint64(i+1)
					if err := q.enq(v); err != nil {
						panic(err)
					}
					produced.Add(v)
					if v, ok := q.deq(); ok {
						consumed.Add(v)
						delivered.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		for { // drain the stragglers
			v, ok := q.deq()
			if !ok {
				break
			}
			consumed.Add(v)
			delivered.Add(1)
		}
		if delivered.Load() != goroutines*perWorker || produced.Load() != consumed.Load() {
			panic(q.name + ": lost or duplicated values")
		}
		fmt.Printf("%-26s delivered %d values exactly once\n", q.name, delivered.Load())
	}

	m := wfe.NewHashMap[uint64](d, keyRange)
	tr := wfe.NewTree[uint64](d)
	maps := []struct {
		name   string
		insert func(uint64) (bool, error)
		del    func(uint64) bool
		get    func(uint64) (uint64, bool)
	}{
		{"HashMap (Michael)", func(k uint64) (bool, error) { return m.TryInsert(k, k) }, m.Delete, m.Get},
		{"Tree (Natarajan–Mittal)", func(k uint64) (bool, error) { return tr.TryInsert(k, k) }, tr.Delete, tr.Get},
	}
	for _, s := range maps {
		var inserted atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := uint64(w)*2654435761 + 1
				for i := 0; i < perWorker; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					key := rng >> 33 & (keyRange - 1)
					switch rng % 3 {
					case 0:
						ok, err := s.insert(key)
						if err != nil {
							panic(err)
						}
						if ok {
							inserted.Add(1)
						}
					case 1:
						if s.del(key) {
							inserted.Add(-1)
						}
					default:
						s.get(key)
					}
				}
			}(w)
		}
		wg.Wait()
		live := 0
		for k := uint64(0); k < keyRange; k++ {
			if _, ok := s.get(k); ok {
				live++
			}
		}
		if int64(live) != inserted.Load() {
			panic(fmt.Sprintf("%s: %d live keys but net insert count %d", s.name, live, inserted.Load()))
		}
		fmt.Printf("%-26s net %d keys live after %d mixed ops\n", s.name, live, goroutines*perWorker)
	}

	t := d.Telemetry()
	fmt.Printf("\none %s domain served all four structures:\n", t.Scheme)
	fmt.Printf("  arena: allocs=%d frees=%d live=%d, unreclaimed backlog %d\n",
		t.Allocs, t.Frees, t.InUse, t.Unreclaimed)
	fmt.Printf("  guard runtime: %d goroutines over %d guards — %d acquires, %d cache hits, %d parks\n",
		goroutines, guards, t.GuardAcquires, t.GuardCacheHits, t.GuardParks)
	fmt.Printf("  wait-free machinery: era %d, slow paths %d, max protect steps %d\n",
		t.Era, t.SlowPaths, t.MaxSteps)
}
