// Public-API conformance harness: one table-driven matrix runs every
// built-in structure (Stack and the paper's four promoted evaluation
// workloads — WFQueue, TurnQueue, HashMap, Tree) against every
// SchemeKind (plus the forced-slow-path variants of the wait-free schemes)
// across all three guard acquisition paths (guardless, pinned,
// acquire-per-op), with the arena's use-after-free detection armed.
//
// Each structure × scheme cell runs a sequential model phase against an
// oracle through an explicit Guard, a concurrent phase per acquisition
// path under exactly-once / net-membership invariants, and finally a
// quiescent drain asserting the retired-block backlog collapses and every
// guard returns to the pool. CI runs this file under -race.
package wfe_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wfe"
	"wfe/internal/quiesce"
)

// conformKind classifies a structure's semantics for the oracle phases.
type conformKind int

const (
	lifoKind conformKind = iota // Stack
	fifoKind                    // WFQueue, TurnQueue
	kvKind                      // HashMap, Tree
)

// conformAPI adapts one public structure to the matrix. A nil guard selects
// the plain guardless methods; a non-nil one the Guarded variants. The
// writes are the Try forms and pass their error back for the caller to
// fail on.
type conformAPI interface {
	kind() conformKind
	// insert pushes/enqueues k (sequences, always true) or inserts k→k*10
	// (kv).
	insert(g *wfe.Guard[uint64], k uint64) (bool, error)
	// remove pops/dequeues (k ignored; returns the value) or Deletes k.
	remove(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	// get and put are kv-only; sequences never see them.
	get(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	put(g *wfe.Guard[uint64], k, v uint64) error
	length() int
}

type stackAPI struct{ s *wfe.Stack[uint64] }

func (a stackAPI) kind() conformKind { return lifoKind }
func (a stackAPI) insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	if g == nil {
		return true, a.s.TryPush(k)
	}
	return true, a.s.TryPushGuarded(g, k)
}
func (a stackAPI) remove(g *wfe.Guard[uint64], _ uint64) (uint64, bool) {
	if g == nil {
		return a.s.Pop()
	}
	return a.s.PopGuarded(g)
}
func (a stackAPI) get(*wfe.Guard[uint64], uint64) (uint64, bool) { panic("stack: no get") }
func (a stackAPI) put(*wfe.Guard[uint64], uint64, uint64) error  { panic("stack: no put") }
func (a stackAPI) length() int                                   { return a.s.Len() }

// fifoQueue is the shared method set of the two public FIFO queues
// (WFQueue, TurnQueue); one adapter covers both.
type fifoQueue interface {
	TryEnqueue(v uint64) error
	TryEnqueueGuarded(g *wfe.Guard[uint64], v uint64) error
	Dequeue() (uint64, bool)
	DequeueGuarded(g *wfe.Guard[uint64]) (uint64, bool)
	Len() int
}

type fifoAPI struct{ q fifoQueue }

func (a fifoAPI) kind() conformKind { return fifoKind }
func (a fifoAPI) insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	if g == nil {
		return true, a.q.TryEnqueue(k)
	}
	return true, a.q.TryEnqueueGuarded(g, k)
}
func (a fifoAPI) remove(g *wfe.Guard[uint64], _ uint64) (uint64, bool) {
	if g == nil {
		return a.q.Dequeue()
	}
	return a.q.DequeueGuarded(g)
}
func (a fifoAPI) get(*wfe.Guard[uint64], uint64) (uint64, bool) { panic("queue: no get") }
func (a fifoAPI) put(*wfe.Guard[uint64], uint64, uint64) error  { panic("queue: no put") }
func (a fifoAPI) length() int                                   { return a.q.Len() }

type hashMapAPI struct{ m *wfe.HashMap[uint64] }

func (a hashMapAPI) kind() conformKind { return kvKind }
func (a hashMapAPI) insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	if g == nil {
		return a.m.TryInsert(k, k*10)
	}
	return a.m.TryInsertGuarded(g, k, k*10)
}
func (a hashMapAPI) remove(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	if g == nil {
		return 0, a.m.Delete(k)
	}
	return 0, a.m.DeleteGuarded(g, k)
}
func (a hashMapAPI) get(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	if g == nil {
		return a.m.Get(k)
	}
	return a.m.GetGuarded(g, k)
}
func (a hashMapAPI) put(g *wfe.Guard[uint64], k, v uint64) error {
	if g == nil {
		return a.m.TryPut(k, v)
	}
	return a.m.TryPutGuarded(g, k, v)
}
func (a hashMapAPI) length() int { return a.m.Len() }

type treeAPI struct{ t *wfe.Tree[uint64] }

func (a treeAPI) kind() conformKind { return kvKind }
func (a treeAPI) insert(g *wfe.Guard[uint64], k uint64) (bool, error) {
	if g == nil {
		return a.t.TryInsert(k, k*10)
	}
	return a.t.TryInsertGuarded(g, k, k*10)
}
func (a treeAPI) remove(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	if g == nil {
		return 0, a.t.Delete(k)
	}
	return 0, a.t.DeleteGuarded(g, k)
}
func (a treeAPI) get(g *wfe.Guard[uint64], k uint64) (uint64, bool) {
	if g == nil {
		return a.t.Get(k)
	}
	return a.t.GetGuarded(g, k)
}
func (a treeAPI) put(g *wfe.Guard[uint64], k, v uint64) error {
	if g == nil {
		return a.t.TryPut(k, v)
	}
	return a.t.TryPutGuarded(g, k, v)
}
func (a treeAPI) length() int { return a.t.Len() }

// conformStructures is the structure axis of the matrix.
var conformStructures = []struct {
	name  string
	build func(d *wfe.Domain[uint64]) conformAPI
}{
	{"Stack", func(d *wfe.Domain[uint64]) conformAPI { return stackAPI{wfe.NewStack[uint64](d)} }},
	{"WFQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewWFQueue[uint64](d)} }},
	{"TurnQueue", func(d *wfe.Domain[uint64]) conformAPI { return fifoAPI{wfe.NewTurnQueue[uint64](d)} }},
	{"HashMap", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 64)} }},
	// One bucket: every key shares a single Harris–Michael chain, the
	// sorted linked list of the paper's Figures 6/9.
	{"HashMap/1bucket", func(d *wfe.Domain[uint64]) conformAPI { return hashMapAPI{wfe.NewHashMap[uint64](d, 1)} }},
	{"Tree", func(d *wfe.Domain[uint64]) conformAPI { return treeAPI{wfe.NewTree[uint64](d)} }},
}

// acquisitionPaths is the third matrix axis: how each concurrent worker
// obtains its guard. body receives nil for the guardless path.
var acquisitionPaths = []struct {
	name string
	run  func(d *wfe.Domain[uint64], iters int, body func(i int, g *wfe.Guard[uint64]))
}{
	{"guardless", func(d *wfe.Domain[uint64], iters int, body func(int, *wfe.Guard[uint64])) {
		for i := 0; i < iters; i++ {
			body(i, nil)
		}
	}},
	{"pinned", func(d *wfe.Domain[uint64], iters int, body func(int, *wfe.Guard[uint64])) {
		g := d.Pin()
		defer d.Unpin(g)
		for i := 0; i < iters; i++ {
			body(i, g)
		}
	}},
	{"acquire-per-op", func(d *wfe.Domain[uint64], iters int, body func(int, *wfe.Guard[uint64])) {
		for i := 0; i < iters; i++ {
			g, err := d.AcquireGuard(context.Background())
			if err != nil {
				panic(err)
			}
			body(i, g)
			g.Release()
		}
	}},
}

const (
	conformGuards   = 4
	conformKeyRange = 32
)

// TestConformance is the full structure × scheme × acquisition-path matrix.
func TestConformance(t *testing.T) {
	for _, st := range conformStructures {
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

				conformModelPhase(t, d, api)
				for _, path := range acquisitionPaths {
					if testing.Short() && path.name != "guardless" {
						continue
					}
					t.Run(path.name, func(t *testing.T) {
						switch api.kind() {
						case lifoKind, fifoKind:
							conformSequencePhase(t, d, api, path.run)
						case kvKind:
							conformKVPhase(t, d, api, path.run)
						}
					})
				}
				conformDrainPhase(t, d, api, kind)
			})
		})
	}
}

// conformModelPhase checks sequential semantics against an oracle through
// an explicit Guard (the third acquisition style, covered here once).
func conformModelPhase(t *testing.T, d *wfe.Domain[uint64], api conformAPI) {
	t.Helper()
	g := d.Guard()
	defer g.Release()

	switch api.kind() {
	case lifoKind, fifoKind:
		if _, ok := api.remove(g, 0); ok {
			t.Fatal("remove from empty structure succeeded")
		}
		for v := uint64(1); v <= 100; v++ {
			if _, err := api.insert(g, v); err != nil {
				t.Fatalf("insert(%d): %v", v, err)
			}
		}
		if n := api.length(); n != 100 {
			t.Fatalf("Len = %d, want 100", n)
		}
		for i := 0; i < 100; i++ {
			want := uint64(i + 1) // FIFO order
			if api.kind() == lifoKind {
				want = uint64(100 - i)
			}
			got, ok := api.remove(g, 0)
			if !ok || got != want {
				t.Fatalf("remove #%d = %d,%v, want %d,true", i, got, ok, want)
			}
		}
		if _, ok := api.remove(g, 0); ok {
			t.Fatal("remove from drained structure succeeded")
		}
	case kvKind:
		model := make(map[uint64]uint64)
		rng := rand.New(rand.NewSource(1))
		ops := 4000
		if testing.Short() {
			ops = 1000
		}
		for i := 0; i < ops; i++ {
			key := uint64(rng.Intn(conformKeyRange + 16))
			oracleStep(t, api, g, model, i, rng.Intn(4), key)
		}
		if n := api.length(); n != len(model) {
			t.Fatalf("Len = %d, model has %d keys", n, len(model))
		}
		for key := range model { // leave the structure empty for what follows
			if _, ok := api.remove(g, key); !ok {
				t.Fatalf("drain: delete(%d) failed", key)
			}
		}
	}
}

// oracleStep applies one kv operation (op 0..3: insert/delete/get/put) to
// both the structure and a plain Go-map oracle, failing on any divergence.
// The conformance model phase and the fuzz targets share it so both check
// the same contract: insert stores key*10 and reports first-insertion,
// put stores op-index+1 unconditionally, and neither returns an error.
func oracleStep(t *testing.T, api conformAPI, g *wfe.Guard[uint64],
	model map[uint64]uint64, i, op int, key uint64) {
	t.Helper()
	switch op {
	case 0: // insert
		_, dup := model[key]
		if got, err := api.insert(g, key); got == dup || err != nil {
			t.Fatalf("op %d: insert(%d) = %v, %v, model has key: %v", i, key, got, err, dup)
		}
		if !dup {
			model[key] = key * 10
		}
	case 1: // delete
		_, want := model[key]
		if _, got := api.remove(g, key); got != want {
			t.Fatalf("op %d: delete(%d) = %v, model says %v", i, key, got, want)
		}
		delete(model, key)
	case 2: // get
		wantV, want := model[key]
		gotV, got := api.get(g, key)
		if got != want || (got && gotV != wantV) {
			t.Fatalf("op %d: get(%d) = %d,%v, model says %d,%v", i, key, gotV, got, wantV, want)
		}
	case 3: // put
		if err := api.put(g, key, uint64(i)+1); err != nil {
			t.Fatalf("op %d: put(%d): %v", i, key, err)
		}
		model[key] = uint64(i) + 1
	}
}

// conformSequencePhase checks exactly-once delivery under concurrency for
// stacks and queues: every inserted value is removed exactly once, verified
// by a commutative checksum over producers, consumers and the final drain.
func conformSequencePhase(t *testing.T, d *wfe.Domain[uint64], api conformAPI,
	run func(d *wfe.Domain[uint64], iters int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, perWorker = 4, 1000
	var produced, consumed [workers]uint64
	var removed [workers]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(d, perWorker, func(i int, g *wfe.Guard[uint64]) {
				v := uint64(w*perWorker+i) + 1
				if _, err := api.insert(g, v); err != nil {
					t.Errorf("insert(%d): %v", v, err)
					return
				}
				produced[w] += v
				if v, ok := api.remove(g, 0); ok {
					consumed[w] += v
					removed[w]++
				}
			})
		}(w)
	}
	wg.Wait()

	g := d.Guard()
	defer g.Release()
	var prodSum, consSum, nRemoved uint64
	for w := 0; w < workers; w++ {
		prodSum += produced[w]
		consSum += consumed[w]
		nRemoved += removed[w]
	}
	for {
		v, ok := api.remove(g, 0)
		if !ok {
			break
		}
		consSum += v
		nRemoved++
	}
	if nRemoved != workers*perWorker || prodSum != consSum {
		t.Fatalf("lost or duplicated values: removed %d/%d, checksums %d vs %d",
			nRemoved, workers*perWorker, consSum, prodSum)
	}
}

// conformKVPhase checks membership consistency under concurrency for maps
// and trees: per key, successful inserts and deletes can differ by at most
// one, and the difference equals the final membership.
func conformKVPhase(t *testing.T, d *wfe.Domain[uint64], api conformAPI,
	run func(d *wfe.Domain[uint64], iters int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, iters = 4, 1000
	type counters struct{ ins, del [conformKeyRange]uint64 }
	perWorker := make([]counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			c := &perWorker[w]
			run(d, iters, func(i int, g *wfe.Guard[uint64]) {
				key := uint64(rng.Intn(conformKeyRange))
				switch rng.Intn(3) {
				case 0:
					ok, err := api.insert(g, key)
					if err != nil {
						t.Errorf("insert(%d): %v", key, err)
						return
					}
					if ok {
						c.ins[key]++
					}
				case 1:
					if _, ok := api.remove(g, key); ok {
						c.del[key]++
					}
				case 2:
					api.get(g, key)
				}
			})
		}(w)
	}
	wg.Wait()

	g := d.Guard()
	defer g.Release()
	for key := uint64(0); key < conformKeyRange; key++ {
		var ins, del uint64
		for w := range perWorker {
			ins += perWorker[w].ins[key]
			del += perWorker[w].del[key]
		}
		net := int64(ins) - int64(del)
		if net != 0 && net != 1 {
			t.Fatalf("key %d net count %d (ins=%d del=%d)", key, net, ins, del)
		}
		if _, got := api.get(g, key); got != (net == 1) {
			t.Fatalf("key %d present=%v but net=%d", key, got, net)
		}
		if net == 1 { // leave the structure empty for the drain phase
			if _, ok := api.remove(g, key); !ok {
				t.Fatalf("drain: delete(%d) failed", key)
			}
		}
	}
}

// conformDrainPhase asserts quiescent cleanliness after the churn: the
// structure is empty, every guard is back in the pool, (for reclaiming
// schemes) the retired-block backlog collapses once each tid's retire list
// gets a settling scan, and the shared retire-side runtime reported the
// churn uniformly — cleanup scans examined blocks and the protect loops
// recorded step histograms for every scheme, HP and EBR included.
func conformDrainPhase(t *testing.T, d *wfe.Domain[uint64], api conformAPI, kind wfe.SchemeKind) {
	t.Helper()
	g := d.Guard()
	if api.kind() != kvKind {
		for {
			if _, ok := api.remove(g, 0); !ok {
				break
			}
		}
	}
	if n := api.length(); n != 0 {
		g.Release()
		t.Fatalf("structure not empty after drain: Len = %d", n)
	}
	g.Release()

	d.Scavenge()
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		t.Fatal(err) // the leak baseline never reclaims by design, so it skips the backlog check
	}
	if kind != wfe.Leak { // Leak neither scans nor loops in GetProtected
		tel := d.Telemetry()
		if tel.ScanScans == 0 || tel.ScanBlocks == 0 {
			t.Fatalf("%s: no cleanup-scan telemetry after churn: scans=%d blocks=%d",
				kind, tel.ScanScans, tel.ScanBlocks)
		}
		if tel.P99Steps == 0 || tel.MaxSteps == 0 {
			t.Fatalf("%s: no protect-loop step telemetry after churn: p99=%d max=%d",
				kind, tel.P99Steps, tel.MaxSteps)
		}
		if tel.P99Steps > tel.MaxSteps {
			t.Fatalf("%s: step quantiles inconsistent: p99=%d > max=%d",
				kind, tel.P99Steps, tel.MaxSteps)
		}
	}
}

// TestTreeKeyRange pins the sentinel-key guard: keys above TreeKeyMax
// collide with the ∞1/∞2 skeleton — a Delete there would unlink the S
// sentinel itself — so every entry point must reject them loudly.
func TestTreeKeyRange(t *testing.T) {
	d := testDomain(t, wfe.WFE, 2, 1<<10, false)
	tr := wfe.NewTree[uint64](d)
	if ok, err := tr.TryInsert(wfe.TreeKeyMax, 1); !ok || err != nil {
		t.Fatalf("TreeKeyMax itself must be insertable: %v, %v", ok, err)
	}
	for name, op := range map[string]func(){
		"TryInsert": func() { tr.TryInsert(wfe.TreeKeyMax+1, 0) },
		"Delete":    func() { tr.Delete(^uint64(0)) },
		"Get":       func() { tr.Get(^uint64(0)) },
		"TryPut":    func() { tr.TryPut(wfe.TreeKeyMax+1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of a sentinel-range key did not panic", name)
				}
			}()
			op()
		}()
	}
	if n := tr.Len(); n != 1 {
		t.Fatalf("Len = %d after rejected sentinel-range ops, want 1", n)
	}
}

// TestStructureMethodCounts pins the structures' public surface: one
// method per operation form, with every write in its error-returning Try
// form. A method added to any structure fails here, so surface growth
// shows in review.
func TestStructureMethodCounts(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		typ  any
		want int
	}{
		{(*wfe.HashMap[uint64])(nil), 15},
		{(*wfe.Tree[uint64])(nil), 13},
		{(*wfe.Stack[uint64])(nil), 9},
		{(*wfe.WFQueue[uint64])(nil), 9},
		{(*wfe.TurnQueue[uint64])(nil), 9},
	} {
		typ := reflect.TypeOf(tc.typ)
		if got := typ.NumMethod(); got != tc.want {
			t.Errorf("%v has %d exported methods, want %d", typ, got, tc.want)
		}
		total += typ.NumMethod()
	}
	if total != 55 {
		t.Errorf("the five structures have %d exported methods, want 55", total)
	}
}
