package wfe

import (
	"math/rand"
	"testing"
)

func TestBuckets(t *testing.T) {
	for _, tc := range []struct {
		min, n int
		shift  uint
	}{
		{-1, 1, 64}, {0, 1, 64}, {1, 1, 64}, {2, 2, 63}, {3, 4, 62},
		{100, 128, 57}, {1 << 19, 1 << 19, 45},
	} {
		n, shift := fibBuckets(tc.min)
		if n != tc.n || shift != tc.shift {
			t.Errorf("fibBuckets(%d) = %d, %d; want %d, %d", tc.min, n, shift, tc.n, tc.shift)
		}
		for _, key := range []uint64{0, 1, 12345, ^uint64(0)} {
			if b := fibBucket(key, shift); b >= uint64(n) {
				t.Errorf("fibBucket(%d, %d) = %d, out of %d buckets", key, shift, b, n)
			}
		}
	}
}

// TestHashMapDenseKeysShortChains inserts the dense keys 0..n-1 into n
// buckets and fails if any bucket gets more than two keys. The benchmarks'
// keys are dense, so this is the distribution their chains see; an index
// taken from the Fibonacci product's middle bits puts up to 10 keys in one
// bucket at n = 2^19. The edge rows 1 and 2 are shifts 64 and 63; the
// largest is the 2^19-key working set of the read-mostly benchmarks.
func TestHashMapDenseKeysShortChains(t *testing.T) {
	for _, n := range []int{1, 2, 1 << 10, 1 << 14, 1 << 17, 1 << 19} {
		m := NewHashMap[int](nil, n)
		chains := make(map[*Atomic[int]]int, n)
		longest := 0
		for k := uint64(0); k < uint64(n); k++ {
			b := m.bucket(k)
			chains[b]++
			longest = max(longest, chains[b])
		}
		if longest > 2 {
			t.Errorf("%d dense keys in %d buckets: longest chain %d, want <= 2 (%d buckets used)",
				n, n, longest, len(chains))
		}
	}
}

// TestSingleBucketDegeneratesToList checks the one-bucket map that the
// single-chain benchmarks build: every key shares one Harris–Michael chain,
// and the map must still behave as a set of keys.
func TestSingleBucketDegeneratesToList(t *testing.T) {
	newMap := func(t *testing.T) (*HashMap[uint64], *Guard[uint64]) {
		d, err := NewDomain[uint64](Options{
			Capacity: 1 << 14, MaxGuards: 1, EraFreq: 32, CleanupFreq: 8, Debug: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := d.Guard()
		t.Cleanup(g.Release)
		m := NewHashMap[uint64](d, 1)
		for k := uint64(1); k < 1000; k++ {
			if m.bucket(k) != m.bucket(0) {
				t.Fatalf("key %d indexes a second bucket", k)
			}
		}
		return m, g
	}

	t.Run("Sequential", func(t *testing.T) {
		m, g := newMap(t)
		if _, ok := m.GetGuarded(g, 10); ok {
			t.Fatal("empty map contains 10")
		}
		if ok, err := m.TryInsertGuarded(g, 10, 100); !ok || err != nil {
			t.Fatalf("insert into empty map = %v, %v", ok, err)
		}
		if ok, err := m.TryInsertGuarded(g, 10, 101); ok || err != nil {
			t.Fatalf("duplicate insert = %v, %v", ok, err)
		}
		if v, ok := m.GetGuarded(g, 10); !ok || v != 100 {
			t.Fatalf("Get(10) = %d, %v; want 100, true", v, ok)
		}
		if m.DeleteGuarded(g, 11) {
			t.Fatal("deleted an absent key")
		}
		if !m.DeleteGuarded(g, 10) {
			t.Fatal("delete of present key failed")
		}
		if _, ok := m.GetGuarded(g, 10); ok {
			t.Fatal("deleted key still present")
		}
		for _, v := range []uint64{1, 2} {
			if err := m.TryPutGuarded(g, 20, v); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok := m.GetGuarded(g, 20); !ok || v != 2 {
			t.Fatalf("Get(20) after two puts = %d, %v; want 2, true", v, ok)
		}
		// Descending inserts land at the head of the sorted chain.
		for k := uint64(300); k >= 3; k -= 3 {
			if ok, err := m.TryInsertGuarded(g, k, k); !ok || err != nil {
				t.Fatalf("bulk insert %d = %v, %v", k, ok, err)
			}
		}
		if n := m.LenGuarded(g); n != 101 {
			t.Fatalf("Len = %d, want 101", n)
		}
		for k := uint64(3); k <= 300; k += 3 {
			if v, ok := m.GetGuarded(g, k); !ok || v != k {
				t.Fatalf("Get(%d) = %d, %v", k, v, ok)
			}
			if _, ok := m.GetGuarded(g, k+1); ok {
				t.Fatalf("phantom key %d present", k+1)
			}
		}
		for k := uint64(3); k <= 300; k += 3 {
			if !m.DeleteGuarded(g, k) {
				t.Fatalf("bulk delete %d failed", k)
			}
		}
	})

	// Model replays random operations against a Go map, with enough
	// delete/insert churn of the same keys to recycle blocks.
	t.Run("Model", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			m, g := newMap(t)
			model := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				key, val := uint64(rng.Intn(64)), uint64(i)
				switch rng.Intn(4) {
				case 0:
					_, present := model[key]
					if got, err := m.TryInsertGuarded(g, key, val); got == present || err != nil {
						t.Fatalf("seed %d op %d: Insert(%d) = %v, %v, model has it: %v", seed, i, key, got, err, present)
					}
					if !present {
						model[key] = val
					}
				case 1:
					_, present := model[key]
					if got := m.DeleteGuarded(g, key); got != present {
						t.Fatalf("seed %d op %d: Delete(%d) = %v, model has it: %v", seed, i, key, got, present)
					}
					delete(model, key)
				case 2:
					want, present := model[key]
					if got, ok := m.GetGuarded(g, key); ok != present || got != want {
						t.Fatalf("seed %d op %d: Get(%d) = %d, %v; model %d, %v", seed, i, key, got, ok, want, present)
					}
				case 3:
					if err := m.TryPutGuarded(g, key, val); err != nil {
						t.Fatalf("seed %d op %d: Put(%d): %v", seed, i, key, err)
					}
					model[key] = val
				}
			}
			if n := m.LenGuarded(g); n != len(model) {
				t.Fatalf("seed %d: Len = %d, model %d", seed, n, len(model))
			}
		}
	})
}
