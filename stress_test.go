// Concurrent stress for the evaluation workloads (WFQueue, TurnQueue,
// HashMap, the one-bucket HashMap that is the paper's linked list, Tree):
// mixed readers/writers from far more goroutines than the Domain has
// guards, with the debug arena's use-after-free and double-free detection
// armed throughout. The -slow rows force every protected read onto the
// wait-free schemes' helping path, the paper's §5 stress validation. The
// stalled row parks a reader on one extra guard for the whole storm. After
// the storm every run drains to quiescence and asserts the reclamation
// machinery's census: the retired backlog collapses for every reclaiming
// scheme, the leak baseline's backlog provably never shrinks, and every
// guard tid is back in the pool. CI runs this file under -race and loops
// it forty times without.
package wfe_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wfe"
	"wfe/internal/bench"
	"wfe/internal/quiesce"
)

// stressStructure is one row of the structure axis. Each of a row's
// stalls gives the Domain one extra guard, which bench.StallReader holds,
// protecting a block, from before the first worker starts until the storm
// ends; EBR's backlog grows behind it and must still collapse once it
// leaves. Stack churn is TestGoroutineChurn's.
type stressStructure struct {
	name   string
	build  func(d *wfe.Domain[uint64]) conformAPI
	stalls int
}

var stressStructures = []stressStructure{
	{"WFQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewWFQueue[uint64](d)} }, 0},
	{"TurnQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewTurnQueue[uint64](d)} }, 0},
	{"HashMap", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 32)} }, 0},
	{"HashMap/1bucket", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 1)} }, 0},
	{"HashMap/stalled", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 32)} }, 1},
	{"Tree", func(d *wfe.Domain[uint64]) conformAPI { return treeAPI{wfe.NewTree[uint64](d)} }, 0},
}

func TestStressWorkloads(t *testing.T) {
	for _, st := range stressStructures {
		t.Run(st.name, func(t *testing.T) {
			forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
				if testing.Short() && forceSlow {
					t.Skip("forced-slow variants are full-mode only")
				}
				stressOne(t, st, kind, forceSlow)
			})
		})
	}
}

func stressOne(t *testing.T, st stressStructure, kind wfe.SchemeKind, forceSlow bool) {
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
	d := testDomain(t, kind, guards+st.stalls, capacity, forceSlow)
	api := st.build(d)
	isQueue := api.kind() == fifoKind

	var lifted atomic.Bool
	var parked, stalled sync.WaitGroup
	for i := 0; i < st.stalls; i++ {
		parked.Add(1)
		stalled.Add(1)
		go func() {
			defer stalled.Done()
			first := true
			bench.StallReader(d, func() bool {
				if first {
					first = false
					parked.Done()
				}
				return lifted.Load()
			})
		}()
	}
	parked.Wait()

	// Storm: every operation leases a guard through the guardless public
	// API (goroutines ≫ MaxGuards exercises parking and the lease hint),
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
	lifted.Store(true)
	stalled.Wait()

	beforeDrain := d.Unreclaimed()
	// EBR's epoch cannot pass the parked reader, so its backlog must have
	// grown past the quiescent census's 256-block floor (about 20 blocks
	// without the stall).
	if st.stalls > 0 && kind == wfe.EBR && beforeDrain <= 256 {
		t.Errorf("EBR backlog %d did not grow behind the stalled reader", beforeDrain)
	}

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
	if n := api.length(); n != 0 {
		g.Release()
		t.Fatalf("%s not empty after drain: Len = %d", st.name, n)
	}
	g.Release()

	d.Scavenge()
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
