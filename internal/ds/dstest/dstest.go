// Package dstest is the shared conformance suite for the key-value data
// structures: sequential semantics, a randomized model-equivalence property
// test, and a concurrent linearizability-style invariant stress run under
// every reclamation scheme with the arena's use-after-free detection armed.
package dstest

import (
	"math/rand"
	"sync"
	"testing"

	"wfe/internal/ds"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

// Builder constructs the structure under test over the given scheme.
type Builder func(smr reclaim.Scheme) ds.KV

// schemesUnderTest exercises every reclaiming scheme plus the forced-slow
// WFE configuration; Leak is covered implicitly (no reclamation to break).
var schemesUnderTest = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "WFE-IBR-slow"}

func newScheme(t testing.TB, name string, threads, capacity int) reclaim.Scheme {
	t.Helper()
	a := mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: true})
	s, err := schemes.New(name, a, reclaim.Config{
		MaxThreads: threads, EraFreq: 32, CleanupFreq: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// RunMapSuite runs the full conformance suite for a map-like structure.
func RunMapSuite(t *testing.T, build Builder) {
	t.Run("Sequential", func(t *testing.T) { runSequential(t, build) })
	t.Run("Model", func(t *testing.T) { runModel(t, build) })
	for _, name := range schemesUnderTest {
		t.Run("Stress/"+name, func(t *testing.T) { runStress(t, build, name) })
	}
}

func runSequential(t *testing.T, build Builder) {
	m := build(newScheme(t, "WFE", 1, 1<<12))

	if m.Get(0, 10) {
		t.Fatal("empty map contains 10")
	}
	if !m.Insert(0, 10) {
		t.Fatal("insert into empty map failed")
	}
	if m.Insert(0, 10) {
		t.Fatal("duplicate insert succeeded")
	}
	if !m.Get(0, 10) {
		t.Fatal("inserted key missing")
	}
	if m.Delete(0, 11) {
		t.Fatal("deleted an absent key")
	}
	if !m.Delete(0, 10) {
		t.Fatal("delete of present key failed")
	}
	if m.Get(0, 10) {
		t.Fatal("deleted key still present")
	}
	// Put must work as both insert and refresh.
	m.Put(0, 20)
	m.Put(0, 20)
	if !m.Get(0, 20) {
		t.Fatal("put key missing")
	}

	// Ordered bulk round-trip.
	for k := uint64(1); k <= 100; k++ {
		if !m.Insert(0, k*3) {
			t.Fatalf("bulk insert %d failed", k*3)
		}
	}
	for k := uint64(1); k <= 100; k++ {
		if !m.Get(0, k*3) {
			t.Fatalf("bulk key %d missing", k*3)
		}
		if m.Get(0, k*3+1) {
			t.Fatalf("phantom key %d present", k*3+1)
		}
	}
	for k := uint64(1); k <= 100; k++ {
		if !m.Delete(0, k*3) {
			t.Fatalf("bulk delete %d failed", k*3)
		}
	}
}

// runModel replays random operation sequences against map[uint64]bool and
// requires identical observable results, including reclamation churn from
// repeated delete/insert of the same keys.
func runModel(t *testing.T, build Builder) {
	for seed := int64(1); seed <= 5; seed++ {
		m := build(newScheme(t, "WFE", 1, 1<<14))
		model := make(map[uint64]bool)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			key := uint64(rng.Intn(64))
			switch rng.Intn(4) {
			case 0:
				want := !model[key]
				if got := m.Insert(0, key); got != want {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, model says %v", seed, i, key, got, want)
				}
				model[key] = true
			case 1:
				want := model[key]
				if got := m.Delete(0, key); got != want {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, model says %v", seed, i, key, got, want)
				}
				delete(model, key)
			case 2:
				want := model[key]
				if got := m.Get(0, key); got != want {
					t.Fatalf("seed %d op %d: Get(%d) = %v, model says %v", seed, i, key, got, want)
				}
			case 3:
				m.Put(0, key)
				model[key] = true
			}
		}
	}
}

// runStress hammers the structure from several goroutines and checks the
// per-key accounting invariant: successful inserts and deletes of one key
// strictly alternate, so netInserts-netDeletes ∈ {0,1} and equals the final
// membership. The debug arena turns any premature reclamation into a panic.
func runStress(t *testing.T, build Builder, schemeName string) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers  = 4
		keyRange = 64
		iters    = 15000
	)
	smr := newScheme(t, schemeName, workers, 1<<17)
	m := build(smr)

	type counters struct{ ins, del [keyRange]uint64 }
	perWorker := make([]counters, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 42))
			c := &perWorker[tid]
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					if m.Insert(tid, key) {
						c.ins[key]++
					}
				case 1:
					if m.Delete(tid, key) {
						c.del[key]++
					}
				case 2:
					m.Get(tid, key)
				}
			}
		}(w)
	}
	wg.Wait()

	for key := uint64(0); key < keyRange; key++ {
		var ins, del uint64
		for w := range perWorker {
			ins += perWorker[w].ins[key]
			del += perWorker[w].del[key]
		}
		net := int64(ins) - int64(del)
		if net != 0 && net != 1 {
			t.Fatalf("%s: key %d net count %d (ins=%d del=%d)", schemeName, key, net, ins, del)
		}
		if got := m.Get(0, key); got != (net == 1) {
			t.Fatalf("%s: key %d present=%v but net=%d", schemeName, key, got, net)
		}
	}
	if smr.Arena().Stats().InUse == 0 {
		t.Fatalf("%s: arena reports nothing in use after stress (bookkeeping broken?)", schemeName)
	}
}

// denseChainBuckets are the bucket counts CheckDenseChains tables: the
// edge rows 1 and 2 (shift 64 and 63) and sizes up to the 2^19-key working
// set of the read-mostly hash-map benchmarks.
var denseChainBuckets = []int{1, 2, 1 << 10, 1 << 14, 1 << 17, 1 << 19}

// CheckDenseChains inserts the dense keys 0..n-1 into n buckets for every
// tabled n and fails if any bucket gets more than two keys. bucketOf(n)
// builds a map of n buckets and returns the function naming key's bucket.
// The benchmarks' keys are dense, so this is the distribution their chains
// see; an index taken from the Fibonacci product's middle bits puts up to
// 10 keys in one bucket at n = 2^19.
func CheckDenseChains[B comparable](t *testing.T, bucketOf func(n int) func(key uint64) B) {
	t.Helper()
	for _, n := range denseChainBuckets {
		bucket := bucketOf(n)
		chains := make(map[B]int, n)
		longest := 0
		for k := uint64(0); k < uint64(n); k++ {
			b := bucket(k)
			chains[b]++
			longest = max(longest, chains[b])
		}
		if longest > 2 {
			t.Errorf("%d dense keys in %d buckets: longest chain %d, want <= 2 (%d buckets used)",
				n, n, longest, len(chains))
		}
	}
}
