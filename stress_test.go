// Concurrent stress for the four promoted evaluation workloads (WFQueue,
// TurnQueue, HashMap, Tree): mixed readers/writers from far more
// goroutines than the Domain has guards, with the debug arena's
// use-after-free and double-free detection armed throughout. After the
// storm every run drains to quiescence and asserts the reclamation
// machinery's census: the retired backlog collapses for every reclaiming
// scheme, the leak baseline's backlog provably never shrinks, and every
// guard tid is back in the pool. CI runs this file under -race.
package wfe_test

import (
	"math/rand"
	"sync"
	"testing"

	"wfe"
	"wfe/internal/quiesce"
)

// stressStructures is the four-structure axis: the workloads this PR
// promotes to the public API (Stack/Queue churn is covered by
// cmd/wfestress -churn and the conformance matrix).
var stressStructures = []struct {
	name  string
	build func(d *wfe.Domain[uint64]) conformAPI
}{
	{"WFQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewWFQueue[uint64](d)} }},
	{"TurnQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewTurnQueue[uint64](d)} }},
	{"HashMap", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 32)} }},
	{"Tree", func(d *wfe.Domain[uint64]) conformAPI { return treeAPI{wfe.NewTree[uint64](d)} }},
}

func TestStressWorkloads(t *testing.T) {
	for _, st := range stressStructures {
		t.Run(st.name, func(t *testing.T) {
			forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
				if testing.Short() && forceSlow {
					t.Skip("forced-slow variants are full-mode only")
				}
				stressOne(t, st.name, st.build, kind, forceSlow)
			})
		})
	}
}

func stressOne(t *testing.T, name string, build func(*wfe.Domain[uint64]) conformAPI,
	kind wfe.SchemeKind, forceSlow bool) {
	t.Helper()
	const guards = 4
	goroutines, iters := 8*guards, 300
	if testing.Short() {
		goroutines, iters = 4*guards, 120
	}
	capacity := 1 << 17
	if kind == wfe.Leak {
		capacity = 1 << 19
	}
	d := testDomain(t, kind, guards, capacity, forceSlow)
	api := build(d)
	isQueue := api.kind() == fifoKind

	// Storm: every operation leases a guard through the guardless public
	// API (goroutines ≫ MaxGuards exercises parking and the lease cache),
	// with an occasional pinned batch mixed in.
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7717 + 11))
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(64))
				switch {
				case isQueue:
					if rng.Intn(2) == 0 {
						if _, err := api.insert(nil, key); err != nil {
							t.Errorf("insert(%d): %v", key, err)
							return
						}
					} else {
						api.remove(nil, 0)
					}
				default:
					switch rng.Intn(8) {
					case 0, 1:
						if _, err := api.insert(nil, key); err != nil {
							t.Errorf("insert(%d): %v", key, err)
							return
						}
					case 2, 3:
						api.remove(nil, key)
					case 4, 5:
						api.get(nil, key)
					case 6:
						if err := api.put(nil, key, uint64(i)); err != nil {
							t.Errorf("put(%d): %v", key, err)
							return
						}
					default: // a short pinned batch mixed into the churn
						g := d.Pin()
						if _, err := api.insert(g, key); err != nil {
							d.Unpin(g)
							t.Errorf("pinned insert(%d): %v", key, err)
							return
						}
						api.get(g, key)
						api.remove(g, key)
						d.Unpin(g)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	beforeDrain := d.Unreclaimed()

	// Quiescent drain back to empty.
	g := d.Guard()
	if isQueue {
		for {
			if _, ok := api.remove(g, 0); !ok {
				break
			}
		}
	} else {
		for key := uint64(0); key < 64; key++ {
			api.remove(g, key)
		}
	}
	if n := api.length(g); n != 0 {
		g.Release()
		t.Fatalf("%s not empty after drain: Len = %d", name, n)
	}
	g.Release()

	quiesce.Settle(d)
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		t.Fatalf("%v (backlog before drain was %d)", err, beforeDrain)
	}
	if kind == wfe.Leak {
		// The leak baseline must never reclaim: the settling churn only
		// grows its backlog.
		if after := d.Unreclaimed(); after < beforeDrain {
			t.Fatalf("leak baseline reclaimed: backlog %d -> %d", beforeDrain, after)
		}
	}
}
