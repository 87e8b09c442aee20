// Batched-operation conformance: the batch entry points (MultiGet,
// MultiDelete, TryMultiPut, TryMultiInsert, TryPushAll, PopN,
// TryEnqueueAll and DequeueN) run through the same structure × scheme
// × acquisition-path matrix as the per-op conformance harness, under the
// same invariants — exactly-once delivery for the sequences, membership
// against an exact oracle for the kv structures — plus the batch-only
// contracts: positional results, partial progress on arena exhaustion,
// batch telemetry and the trace bracket. CI runs this file under -race.
package wfe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wfe"
	"wfe/internal/quiesce"
)

// batchAPI adapts one structure's batch entry points to the matrix. A nil
// guard selects the plain guardless batch methods; a non-nil one the
// Guarded variants. Sequences implement insertAll/removeN; kv structures
// putAll/deleteAll (and getAll where the structure has a batch read).
// The writes are the Try forms and pass their error back for the caller
// to fail on.
type batchAPI interface {
	kind() conformKind
	// insertAll pushes/enqueues vs in slice order (sequences only).
	insertAll(g *wfe.Guard[uint64], vs []uint64) error
	// removeN pops/dequeues up to n values (sequences only).
	removeN(g *wfe.Guard[uint64], n int) []uint64
	// putAll upserts ks[i]→vs[i]; for the Tree (no unconditional batch
	// write) it is TryMultiInsert, so repeated keys keep their first value.
	putAll(g *wfe.Guard[uint64], ks, vs []uint64) error
	// deleteAll removes every key, reporting per-key presence.
	deleteAll(g *wfe.Guard[uint64], ks []uint64) []bool
	// getOne reads one key through the per-op path (every kv structure
	// has it; the HashMap additionally gets getAll coverage).
	getOne(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	length(g *wfe.Guard[uint64]) int
}

type stackBatchAPI struct{ s *wfe.Stack[uint64] }

func (a stackBatchAPI) kind() conformKind { return lifoKind }
func (a stackBatchAPI) insertAll(g *wfe.Guard[uint64], vs []uint64) (err error) {
	if g == nil {
		_, err = a.s.TryPushAll(vs)
	} else {
		_, err = a.s.TryPushAllGuarded(g, vs)
	}
	return err
}
func (a stackBatchAPI) removeN(g *wfe.Guard[uint64], n int) []uint64 {
	if g == nil {
		return a.s.PopN(n)
	}
	return a.s.PopNGuarded(g, n)
}
func (a stackBatchAPI) putAll(*wfe.Guard[uint64], []uint64, []uint64) error {
	panic("stack: no putAll")
}
func (a stackBatchAPI) deleteAll(*wfe.Guard[uint64], []uint64) []bool { panic("stack: no deleteAll") }
func (a stackBatchAPI) getOne(*wfe.Guard[uint64], uint64) (uint64, bool) {
	panic("stack: no getOne")
}
func (a stackBatchAPI) length(g *wfe.Guard[uint64]) int {
	if g == nil {
		return a.s.Len()
	}
	return a.s.LenGuarded(g)
}

// batchFifo is the shared batch method set of the three FIFO queues.
type batchFifo interface {
	TryEnqueueAll(vs []uint64) (int, error)
	TryEnqueueAllGuarded(g *wfe.Guard[uint64], vs []uint64) (int, error)
	DequeueN(n int) []uint64
	DequeueNGuarded(g *wfe.Guard[uint64], n int) []uint64
	Len() int
	LenGuarded(g *wfe.Guard[uint64]) int
}

type fifoBatchAPI struct{ q batchFifo }

func (a fifoBatchAPI) kind() conformKind { return fifoKind }
func (a fifoBatchAPI) insertAll(g *wfe.Guard[uint64], vs []uint64) (err error) {
	if g == nil {
		_, err = a.q.TryEnqueueAll(vs)
	} else {
		_, err = a.q.TryEnqueueAllGuarded(g, vs)
	}
	return err
}
func (a fifoBatchAPI) removeN(g *wfe.Guard[uint64], n int) []uint64 {
	if g == nil {
		return a.q.DequeueN(n)
	}
	return a.q.DequeueNGuarded(g, n)
}
func (a fifoBatchAPI) putAll(*wfe.Guard[uint64], []uint64, []uint64) error {
	panic("fifo: no putAll")
}
func (a fifoBatchAPI) deleteAll(*wfe.Guard[uint64], []uint64) []bool { panic("fifo: no deleteAll") }
func (a fifoBatchAPI) getOne(*wfe.Guard[uint64], uint64) (uint64, bool) {
	panic("fifo: no getOne")
}
func (a fifoBatchAPI) length(g *wfe.Guard[uint64]) int {
	if g == nil {
		return a.q.Len()
	}
	return a.q.LenGuarded(g)
}

type hashMapBatchAPI struct{ m *wfe.HashMap[uint64] }

func (a hashMapBatchAPI) kind() conformKind                            { return kvKind }
func (a hashMapBatchAPI) insertAll(*wfe.Guard[uint64], []uint64) error { panic("map: no insertAll") }
func (a hashMapBatchAPI) removeN(*wfe.Guard[uint64], int) []uint64 {
	panic("map: no removeN")
}
func (a hashMapBatchAPI) putAll(g *wfe.Guard[uint64], ks, vs []uint64) (err error) {
	if g == nil {
		_, err = a.m.TryMultiPut(ks, vs)
	} else {
		_, err = a.m.TryMultiPutGuarded(g, ks, vs)
	}
	return err
}
func (a hashMapBatchAPI) deleteAll(g *wfe.Guard[uint64], ks []uint64) []bool {
	if g == nil {
		return a.m.MultiDelete(ks)
	}
	return a.m.MultiDeleteGuarded(g, ks)
}
func (a hashMapBatchAPI) getOne(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	var vals []uint64
	var oks []bool
	if g == nil {
		vals, oks = a.m.MultiGet([]uint64{k})
	} else {
		vals, oks = a.m.MultiGetGuarded(g, []uint64{k})
	}
	return vals[0], oks[0]
}
func (a hashMapBatchAPI) length(g *wfe.Guard[uint64]) int {
	if g == nil {
		return a.m.Len()
	}
	return a.m.LenGuarded(g)
}

type treeBatchAPI struct{ t *wfe.Tree[uint64] }

func (a treeBatchAPI) kind() conformKind                            { return kvKind }
func (a treeBatchAPI) insertAll(*wfe.Guard[uint64], []uint64) error { panic("tree: no insertAll") }
func (a treeBatchAPI) removeN(*wfe.Guard[uint64], int) []uint64 {
	panic("tree: no removeN")
}
func (a treeBatchAPI) putAll(g *wfe.Guard[uint64], ks, vs []uint64) (err error) {
	if g == nil {
		_, _, err = a.t.TryMultiInsert(ks, vs)
	} else {
		_, _, err = a.t.TryMultiInsertGuarded(g, ks, vs)
	}
	return err
}
func (a treeBatchAPI) deleteAll(g *wfe.Guard[uint64], ks []uint64) []bool {
	if g == nil {
		return a.t.MultiDelete(ks)
	}
	return a.t.MultiDeleteGuarded(g, ks)
}
func (a treeBatchAPI) getOne(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	if g == nil {
		return a.t.Get(k)
	}
	return a.t.GetGuarded(g, k)
}
func (a treeBatchAPI) length(g *wfe.Guard[uint64]) int {
	if g == nil {
		return a.t.Len()
	}
	return a.t.LenGuarded(g)
}

var batchStructures = []struct {
	name  string
	build func(d *wfe.Domain[uint64]) batchAPI
}{
	{"Stack", func(d *wfe.Domain[uint64]) batchAPI { return stackBatchAPI{wfe.NewStack[uint64](d)} }},
	{"Queue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI{wfe.NewQueue[uint64](d)} }},
	{"WFQueue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI{wfe.NewWFQueue[uint64](d)} }},
	{"TurnQueue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI{wfe.NewTurnQueue[uint64](d)} }},
	{"HashMap", func(d *wfe.Domain[uint64]) batchAPI { return hashMapBatchAPI{wfe.NewHashMap[uint64](d, 64)} }},
	{"Tree", func(d *wfe.Domain[uint64]) batchAPI { return treeBatchAPI{wfe.NewTree[uint64](d)} }},
}

// batchPaths mirrors acquisitionPaths for burst-granular work: how a
// worker holds its guard across a run of bursts.
var batchPaths = []struct {
	name string
	run  func(d *wfe.Domain[uint64], bursts int, body func(b int, g *wfe.Guard[uint64]))
}{
	{"guardless", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		for b := 0; b < bursts; b++ {
			body(b, nil)
		}
	}},
	{"pinned", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		g := d.Pin()
		defer d.Unpin(g)
		for b := 0; b < bursts; b++ {
			body(b, g)
		}
	}},
	{"acquire-per-op", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		for b := 0; b < bursts; b++ {
			g, err := d.AcquireGuard(context.Background())
			if err != nil {
				panic(err)
			}
			body(b, g)
			g.Release()
		}
	}},
}

// TestBatchReadSizesResultByStructure holds PopN and DequeueN to what the
// structure can return rather than to the caller's n: a huge n on a
// one-value structure allocates no n-sized result, and a negative n
// returns nothing instead of panicking.
func TestBatchReadSizesResultByStructure(t *testing.T) {
	for _, st := range batchStructures {
		d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 10, MaxGuards: 2})
		if err != nil {
			t.Fatal(err)
		}
		api := st.build(d)
		if api.kind() == kvKind {
			continue
		}
		t.Run(st.name, func(t *testing.T) {
			if err := api.insertAll(nil, []uint64{42}); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := api.removeN(nil, 1<<24)
			runtime.ReadMemStats(&after)
			if len(got) != 1 || got[0] != 42 {
				t.Fatalf("removeN(1<<24) on a one-value structure = %v, want [42]", got)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("removeN(1<<24) allocated %d bytes to return one value, want < 1 MB", grew)
			}
			if err := api.insertAll(nil, []uint64{7}); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("removeN(-1) panicked: %v", r)
					}
				}()
				if got := api.removeN(nil, -1); len(got) != 0 {
					t.Errorf("removeN(-1) = %v, want nothing", got)
				}
			}()
		})
	}
}

// TestBatchConformance runs the batch APIs through the full structure ×
// scheme × acquisition-path matrix.
func TestBatchConformance(t *testing.T) {
	for _, st := range batchStructures {
		t.Run(st.name, func(t *testing.T) {
			forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
				if testing.Short() && forceSlow {
					t.Skip("forced-slow variants are full-mode only")
				}
				capacity := 1 << 16
				if kind == wfe.Leak {
					capacity = 1 << 19 // Leak never recycles churn
				}
				d := testDomain(t, kind, conformGuards, capacity, forceSlow)
				api := st.build(d)

				batchModelPhase(t, d, api)
				for _, path := range batchPaths {
					if testing.Short() && path.name != "guardless" {
						continue
					}
					t.Run(path.name, func(t *testing.T) {
						switch api.kind() {
						case lifoKind, fifoKind:
							batchSequencePhase(t, d, api, path.run)
						case kvKind:
							batchKVPhase(t, d, api, path.run)
						}
					})
				}
				batchDrainPhase(t, d, api, kind)
			})
		})
	}
}

// batchModelPhase pins the sequential batch semantics: slice-order
// insertion, positional results, early stop on empty, width-0 and
// width-1 edge cases.
func batchModelPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI) {
	t.Helper()
	g := d.Guard()
	defer g.Release()

	switch api.kind() {
	case lifoKind, fifoKind:
		if got := api.removeN(g, 4); len(got) != 0 {
			t.Fatalf("removeN on empty = %v, want []", got)
		}
		vs := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if err := api.insertAll(g, vs); err != nil {
			t.Fatal(err)
		}
		if err := api.insertAll(g, nil); err != nil { // empty batch: a no-op, not a panic
			t.Fatal(err)
		}
		if n := api.length(g); n != 10 {
			t.Fatalf("Len after insertAll = %d, want 10", n)
		}
		got := api.removeN(g, 4)
		want := []uint64{1, 2, 3, 4} // FIFO
		if api.kind() == lifoKind {
			want = []uint64{10, 9, 8, 7} // LIFO: top first
		}
		if len(got) != 4 {
			t.Fatalf("removeN(4) = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("removeN(4) = %v, want %v", got, want)
			}
		}
		rest := api.removeN(g, 100) // over-ask drains and stops early
		if len(rest) != 6 {
			t.Fatalf("removeN(100) returned %d values, want the remaining 6", len(rest))
		}
		if n := api.length(g); n != 0 {
			t.Fatalf("Len after drain = %d, want 0", n)
		}
	case kvKind:
		ks := []uint64{3, 1, 4, 1, 5} // key 1 repeats within the batch
		vs := []uint64{30, 10, 40, 11, 50}
		if err := api.putAll(g, ks, vs); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{3, 4, 5} {
			if _, ok := api.getOne(g, k); !ok {
				t.Fatalf("key %d missing after putAll", k)
			}
		}
		if v, ok := api.getOne(g, 1); !ok || (v != 10 && v != 11) {
			t.Fatalf("repeated key 1 = %d,%v after putAll", v, ok)
		}
		oks := api.deleteAll(g, []uint64{3, 99, 1, 1})
		wantOks := []bool{true, false, true, false} // second delete of 1 misses
		for i := range wantOks {
			if oks[i] != wantOks[i] {
				t.Fatalf("deleteAll oks = %v, want %v", oks, wantOks)
			}
		}
		api.deleteAll(g, []uint64{4, 5})
		if n := api.length(g); n != 0 {
			t.Fatalf("Len after deletes = %d, want 0", n)
		}
	}
}

// batchSequencePhase checks exactly-once delivery under concurrent
// TryPushAll/PopN (TryEnqueueAll/DequeueN) bursts: every value inserted by any
// burst is removed exactly once across all bursts plus the final drain.
func batchSequencePhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI,
	run func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, bursts, width = 4, 50, 8
	var produced, consumed [workers]uint64
	var inserted, removed [workers]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := make([]uint64, width)
			run(d, bursts, func(b int, g *wfe.Guard[uint64]) {
				for j := range vs {
					vs[j] = uint64(w*bursts*width+b*width+j) + 1
				}
				if err := api.insertAll(g, vs); err != nil {
					t.Errorf("insertAll: %v", err)
					return
				}
				for _, v := range vs {
					produced[w] += v
				}
				inserted[w] += width
				for _, v := range api.removeN(g, width/2) {
					consumed[w] += v
					removed[w]++
				}
			})
		}(w)
	}
	wg.Wait()

	g := d.Guard()
	defer g.Release()
	var prodSum, consSum, nIns, nRem uint64
	for w := 0; w < workers; w++ {
		prodSum += produced[w]
		consSum += consumed[w]
		nIns += inserted[w]
		nRem += removed[w]
	}
	for {
		got := api.removeN(g, 64)
		if len(got) == 0 {
			break
		}
		for _, v := range got {
			consSum += v
			nRem++
		}
	}
	if nRem != nIns || prodSum != consSum {
		t.Fatalf("lost or duplicated values: removed %d/%d, checksums %d vs %d",
			nRem, nIns, consSum, prodSum)
	}
}

// batchKVPhase checks batch writes against an exact per-worker oracle:
// workers own disjoint key stripes, so each worker's model map predicts
// its own reads precisely while the domain-level machinery (spans,
// deferred retires, scan cadence) is shared and contended.
func batchKVPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI,
	run func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, bursts, width, stripe = 4, 50, 8, 16
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			model := make(map[uint64]uint64)
			base := uint64(w * stripe)
			ks := make([]uint64, width)
			vs := make([]uint64, width)
			run(d, bursts, func(b int, g *wfe.Guard[uint64]) {
				if werrs[w] != nil {
					return // the model is unreliable after a divergence
				}
				for j := range ks {
					ks[j] = base + uint64(rng.Intn(stripe))
					vs[j] = uint64(b*width+j) + 1
				}
				if rng.Intn(2) == 0 {
					if err := api.putAll(g, ks, vs); err != nil {
						werrs[w] = fmt.Errorf("worker %d burst %d: putAll: %v", w, b, err)
						return
					}
					// The HashMap upserts, the Tree keeps the first value;
					// track membership only, which both guarantee.
					for j := range ks {
						if _, dup := model[ks[j]]; !dup {
							model[ks[j]] = vs[j]
						}
					}
				} else {
					oks := api.deleteAll(g, ks)
					for j := range ks {
						_, want := model[ks[j]]
						// A key repeated in one delete batch is present
						// only for its first occurrence.
						for jj := 0; jj < j; jj++ {
							if ks[jj] == ks[j] {
								want = false
							}
						}
						if oks[j] != want {
							werrs[w] = fmt.Errorf("worker %d burst %d: delete(%d) = %v, model says %v",
								w, b, ks[j], oks[j], want)
							return
						}
						delete(model, ks[j])
					}
				}
				// Spot-check membership after every burst.
				k := base + uint64(rng.Intn(stripe))
				_, want := model[k]
				if _, got := api.getOne(g, k); got != want {
					werrs[w] = fmt.Errorf("worker %d burst %d: get(%d) = %v, model says %v",
						w, b, k, got, want)
				}
			})
			// Drain the stripe so the shared drain phase sees empty.
			for k := range model {
				api.deleteAll(nil, []uint64{k})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// batchDrainPhase asserts quiescent cleanliness plus the batch
// telemetry: the bursts were accounted (BatchOps, BatchedItems), and one
// guardless burst takes exactly one lease.
func batchDrainPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI, kind wfe.SchemeKind) {
	t.Helper()
	g := d.Guard()
	if api.kind() != kvKind {
		for len(api.removeN(g, 64)) > 0 {
		}
	}
	if n := api.length(g); n != 0 {
		g.Release()
		t.Fatalf("structure not empty after drain: Len = %d", n)
	}
	g.Release()

	d.Scavenge()
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		t.Fatal(err)
	}
	tel := d.Telemetry()
	if tel.BatchOps == 0 {
		t.Fatal("no BatchOps accounted after batch churn")
	}
	if tel.BatchedItems < tel.BatchOps {
		t.Fatalf("BatchedItems %d < BatchOps %d", tel.BatchedItems, tel.BatchOps)
	}
	if api.kind() == kvKind {
		api.deleteAll(nil, []uint64{1, 2})
	} else {
		api.removeN(nil, 2)
	}
	after := d.Telemetry()
	if leases := after.GuardCacheHits + after.GuardCacheMisses - tel.GuardCacheHits - tel.GuardCacheMisses; leases != 1 {
		t.Fatalf("one guardless burst took %d leases, want 1", leases)
	}
	if bursts := after.BatchOps - tel.BatchOps; bursts != 1 {
		t.Fatalf("one guardless burst added %d BatchOps, want 1", bursts)
	}
}

// TestBatchPartialProgress pins the Try* exhaustion contract on every
// allocating batch API: under the Leak scheme (which never recycles, so
// exhaustion is deterministic) a too-large batch applies a prefix,
// reports its length, and returns ErrArenaExhausted — and the structure
// holds exactly that prefix.
func TestBatchPartialProgress(t *testing.T) {
	const capacity = 128
	build := func(t *testing.T) *wfe.Domain[uint64] {
		d, err := wfe.NewDomain[uint64](wfe.Options{
			Scheme:    wfe.Leak,
			Capacity:  capacity,
			MaxGuards: 2,
			Debug:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	vals := make([]uint64, capacity+64)
	keys := make([]uint64, capacity+64)
	for i := range vals {
		vals[i] = uint64(i) + 1
		keys[i] = uint64(i) + 1
	}

	t.Run("Stack", func(t *testing.T) {
		d := build(t)
		s := wfe.NewStack[uint64](d)
		pushed, err := s.TryPushAll(vals)
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("TryPushAll err = %v, want ErrArenaExhausted", err)
		}
		if pushed == 0 || pushed >= len(vals) {
			t.Fatalf("TryPushAll pushed = %d, want a proper prefix of %d", pushed, len(vals))
		}
		if n := s.Len(); n != pushed {
			t.Fatalf("Len = %d, pushed = %d", n, pushed)
		}
		// The prefix landed in slice order: the top is vals[pushed-1].
		if got := s.PopN(1); len(got) != 1 || got[0] != vals[pushed-1] {
			t.Fatalf("top = %v, want %d", got, vals[pushed-1])
		}
	})

	t.Run("Queue", func(t *testing.T) {
		d := build(t)
		q := wfe.NewQueue[uint64](d)
		enq, err := q.TryEnqueueAll(vals)
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("TryEnqueueAll err = %v, want ErrArenaExhausted", err)
		}
		if enq == 0 || enq >= len(vals) {
			t.Fatalf("TryEnqueueAll enqueued = %d, want a proper prefix", enq)
		}
		got := q.DequeueN(enq)
		if len(got) != enq || got[0] != vals[0] || got[enq-1] != vals[enq-1] {
			t.Fatalf("prefix mismatch: got %d values, first %d last %d", len(got), got[0], got[len(got)-1])
		}
	})

	t.Run("HashMap", func(t *testing.T) {
		d := build(t)
		m := wfe.NewHashMap[uint64](d, 8)
		applied, err := m.TryMultiPut(keys, vals)
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("TryMultiPut err = %v, want ErrArenaExhausted", err)
		}
		if applied == 0 || applied >= len(keys) {
			t.Fatalf("TryMultiPut applied = %d, want a proper prefix", applied)
		}
		vs, oks := m.MultiGet(keys)
		for i := range keys {
			if oks[i] != (i < applied) {
				t.Fatalf("key %d present=%v, applied prefix is %d", keys[i], oks[i], applied)
			}
			if oks[i] && vs[i] != vals[i] {
				t.Fatalf("key %d = %d, want %d", keys[i], vs[i], vals[i])
			}
		}
	})

	t.Run("Tree", func(t *testing.T) {
		d := build(t)
		tr := wfe.NewTree[uint64](d)
		inserted, attempted, err := tr.TryMultiInsert(keys, vals)
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("TryMultiInsert err = %v, want ErrArenaExhausted", err)
		}
		if attempted == 0 || attempted >= len(keys) {
			t.Fatalf("TryMultiInsert attempted = %d, want a proper prefix", attempted)
		}
		for i := range keys {
			_, ok := tr.Get(keys[i])
			if ok != (i < attempted) {
				t.Fatalf("key %d present=%v, attempted prefix is %d", keys[i], ok, attempted)
			}
			if ok != inserted[i] {
				t.Fatalf("key %d: inserted[%d]=%v but Get says %v", keys[i], i, inserted[i], ok)
			}
		}
	})

	t.Run("WFQueue", func(t *testing.T) {
		d := build(t)
		q := wfe.NewWFQueue[uint64](d)
		enq, err := q.TryEnqueueAll(vals)
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("TryEnqueueAll err = %v, want ErrArenaExhausted", err)
		}
		if enq == 0 || enq >= len(vals) {
			t.Fatalf("TryEnqueueAll enqueued = %d, want a proper prefix", enq)
		}
		got := q.DequeueN(enq + 8)
		if len(got) != enq || got[0] != vals[0] {
			t.Fatalf("prefix mismatch: %d values dequeued, enqueued %d", len(got), enq)
		}
	})
}

// TestBatchTraceBracket pins the trace contract: a width-n batch (n > 1)
// emits one batch-begin/batch-end pair around its items, with the item
// and retire counts in the end record's payloads.
func TestBatchTraceBracket(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    wfe.WFE,
		Capacity:  1 << 10,
		MaxGuards: 2,
		Trace:     true,
		Debug:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 8)
	keys := []uint64{1, 2, 3, 4}
	vals := []uint64{10, 20, 30, 40}
	if _, err := m.TryMultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	m.MultiDelete(keys)

	var begins, ends int
	var lastEnd wfe.TraceEvent
	for _, ev := range d.TraceEvents() {
		switch ev.Kind {
		case "batch-begin":
			begins++
		case "batch-end":
			ends++
			lastEnd = ev
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("trace brackets: %d begins, %d ends, want 2 and 2", begins, ends)
	}
	// The delete batch ran last: 4 items, 4 deferred retires.
	if lastEnd.A != 4 || lastEnd.B != 4 {
		t.Fatalf("batch-end payload = items %d retires %d, want 4 and 4", lastEnd.A, lastEnd.B)
	}
}
