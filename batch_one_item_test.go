// One-item batch writes: a batch of one skips the batch context and runs
// its item as the equivalent per-op call, so each write item must open
// and close its own protected section (Begin/End) exactly as the per-op
// body does. Without it the item reads the structure with no epoch
// announced, and the protections it does take stay on the guard after
// the call — on the unpinned guard, where they pin blocks for good.
package wfe_test

import (
	"sync"
	"testing"

	"wfe"
	"wfe/internal/quiesce"
)

// oneItemOps is one structure's one-item guardless batch write, with the
// per-op writes and removals around it, each on a caller-held guard.
type oneItemOps struct {
	batch  func(k uint64) error
	insert func(g *wfe.Guard[uint64], k uint64) error
	remove func(g *wfe.Guard[uint64], k uint64)
	drain  func(g *wfe.Guard[uint64]) // empty the structure
}

const oneItemKeys = 32

var oneItemWriters = []struct {
	name  string
	build func(d *wfe.Domain[uint64]) oneItemOps
}{
	{"Stack.TryPushAll", func(d *wfe.Domain[uint64]) oneItemOps {
		s := wfe.NewStack[uint64](d)
		return oneItemOps{
			batch: func(k uint64) error {
				_, err := s.TryPushAll([]uint64{k})
				return err
			},
			insert: func(g *wfe.Guard[uint64], k uint64) error { return s.TryPushGuarded(g, k) },
			remove: func(g *wfe.Guard[uint64], _ uint64) { s.PopGuarded(g) },
			drain: func(g *wfe.Guard[uint64]) {
				for _, ok := s.PopGuarded(g); ok; _, ok = s.PopGuarded(g) {
				}
			},
		}
	}},
	{"HashMap.TryMultiPut", func(d *wfe.Domain[uint64]) oneItemOps {
		m := wfe.NewHashMap[uint64](d, 1) // one chain: every write traverses it
		return oneItemOps{
			batch: func(k uint64) error {
				_, err := m.TryMultiPut([]uint64{k}, []uint64{k})
				return err
			},
			insert: func(g *wfe.Guard[uint64], k uint64) error {
				_, err := m.TryInsertGuarded(g, k, k)
				return err
			},
			remove: func(g *wfe.Guard[uint64], k uint64) { m.DeleteGuarded(g, k) },
			drain: func(g *wfe.Guard[uint64]) {
				for k := uint64(0); k < oneItemKeys; k++ {
					m.DeleteGuarded(g, k)
				}
			},
		}
	}},
	{"Tree.TryMultiInsert", func(d *wfe.Domain[uint64]) oneItemOps {
		tr := wfe.NewTree[uint64](d)
		return oneItemOps{
			batch: func(k uint64) error {
				_, _, err := tr.TryMultiInsert([]uint64{k}, []uint64{k})
				return err
			},
			insert: func(g *wfe.Guard[uint64], k uint64) error {
				_, err := tr.TryInsertGuarded(g, k, k)
				return err
			},
			remove: func(g *wfe.Guard[uint64], k uint64) { tr.DeleteGuarded(g, k) },
			drain: func(g *wfe.Guard[uint64]) {
				for k := uint64(0); k < oneItemKeys; k++ {
					tr.DeleteGuarded(g, k)
				}
			},
		}
	}},
}

// TestOneItemBatchWriteDropsProtection runs one one-item guardless batch
// write between an explicit guard's fill and its removal of every
// element, then scavenges. The batch's leased guard sits unpinned
// throughout, so any protection it kept pins the blocks it covered, and
// the backlog cannot reach zero.
func TestOneItemBatchWriteDropsProtection(t *testing.T) {
	for _, w := range oneItemWriters {
		for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.HE, wfe.HP} {
			t.Run(w.name+"/"+kind.String(), func(t *testing.T) {
				d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: kind, Capacity: 1 << 10, MaxGuards: 2})
				if err != nil {
					t.Fatal(err)
				}
				ops := w.build(d)
				g := d.Guard() // the batch leases the other guard
				defer g.Release()
				for k := uint64(1); k <= 16; k++ {
					if err := ops.insert(g, k); err != nil {
						t.Fatal(err)
					}
				}
				if err := ops.batch(oneItemKeys - 1); err != nil {
					t.Fatal(err)
				}
				for k := uint64(1); k <= 16; k++ {
					ops.remove(g, k)
				}
				ops.drain(g)
				d.Scavenge()
				if n := d.Unreclaimed(); n != 0 {
					t.Fatalf("%d retired blocks still pinned after Scavenge: the one-item batch kept its protections", n)
				}
			})
		}
	}
}

// TestOneItemBatchWriteChurn races one-item guardless batch writes
// against per-op insert and removal churn on a Debug domain under the
// epoch and interval schemes, where an item that reads the structure
// without Begin is unprotected: a block freed under it panics as a
// Debug-arena use-after-free. Every worker runs a fixed number of
// operations; the test waits for them, then drains and checks that the
// backlog collapses.
func TestOneItemBatchWriteChurn(t *testing.T) {
	const writers, churners, iters = 2, 2, 5000
	for _, w := range oneItemWriters {
		for _, kind := range []wfe.SchemeKind{wfe.EBR, wfe.TwoGEIBR, wfe.WFEIBR} {
			t.Run(w.name+"/"+kind.String(), func(t *testing.T) {
				d := testDomain(t, kind, writers+churners, 1<<14, false)
				ops := w.build(d)
				start := make(chan struct{})
				var wg sync.WaitGroup
				run := func(id int, op func(i int, k uint64) error) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("worker %d: %v", id, r)
						}
					}()
					<-start
					rng := uint64(id)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < iters; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						if err := op(i, rng%oneItemKeys); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}
				for id := 0; id < writers; id++ {
					wg.Add(1)
					go run(id, func(_ int, k uint64) error { return ops.batch(k) })
				}
				for id := writers; id < writers+churners; id++ {
					wg.Add(1)
					go run(id, func(i int, k uint64) error {
						g := d.Pin()
						defer d.Unpin(g)
						if i%2 == 0 {
							return ops.insert(g, k)
						}
						ops.remove(g, k)
						return nil
					})
				}
				close(start)
				wg.Wait()
				g := d.Pin()
				ops.drain(g)
				d.Unpin(g)
				d.Scavenge()
				if err := quiesce.Check(d, true); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
