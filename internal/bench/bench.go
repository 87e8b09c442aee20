// Package bench holds the pieces of the paper's evaluation (§5) that the
// root package's figure benchmarks and storm tests share: the two
// operation mixes, adapters that drive every shipped public structure
// through one interface, the paper's prefill, and the stalled reader of
// the robustness argument.
package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"wfe"
)

// Workload is an operation mix in percent (summing to 100).
type Workload struct {
	Name                           string
	Insert, Delete, GetPct, PutPct int
}

// The paper's two mixes (§5).
var (
	WriteHeavy = Workload{Name: "50i/50d", Insert: 50, Delete: 50}
	ReadMostly = Workload{Name: "90g/10p", GetPct: 90, PutPct: 10}
)

// Do applies one operation of the mix to kv through g: pick, drawn from
// [0, 100), selects insert, delete, get or put by the mix's percentages.
// It returns the write's error, wfe.ErrArenaExhausted when the arena
// stays full.
func (w Workload) Do(kv PublicKV, g *wfe.Guard[uint64], pick int, key uint64) error {
	switch {
	case pick < w.Insert:
		_, err := kv.Insert(g, key)
		return err
	case pick < w.Insert+w.Delete:
		kv.Remove(g, key)
	case pick < w.Insert+w.Delete+w.GetPct:
		kv.Get(g, key)
	default:
		return kv.Put(g, key)
	}
	return nil
}

// prefillKeys draws distinct random keys in ascending order (the paper
// prefills 50K elements from the key range).
func prefillKeys(n int, keyRange uint64, rng *rand.Rand) []uint64 {
	if uint64(n) > keyRange {
		n = int(keyRange)
	}
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := uint64(rng.Int63n(int64(keyRange)))
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Prefill loads n elements into a freshly built structure through one
// pinned guard, the paper's §5 methodology: queues get n random
// enqueues, the search structures n distinct keys from [0, keyRange).
// Hash-map chains are sorted ascending, so the keys go in descending order
// and each insert lands at its chain's head — the one-chain list of
// Figures 6/9 fills in linear rather than quadratic time. The tree gets
// them shuffled: sorted insertion would degenerate the external BST into
// a list, and the measurement with it. An arena too small for the
// prefill stops it with wfe.ErrArenaExhausted.
func Prefill(d *wfe.Domain[uint64], kv PublicKV, ds string, n int, keyRange uint64) error {
	g := d.Pin()
	defer d.Unpin(g)
	rng := rand.New(rand.NewSource(12345))
	if isQueue(ds) {
		for i := 0; i < n; i++ {
			if _, err := kv.Insert(g, uint64(rng.Int63n(int64(keyRange)))); err != nil {
				return fmt.Errorf("bench: prefill %s: %w", ds, err)
			}
		}
		return nil
	}
	keys := prefillKeys(n, keyRange, rng)
	if ds == "tree" {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	} else {
		slices.Reverse(keys)
	}
	for _, k := range keys {
		if _, err := kv.Insert(g, k); err != nil {
			return fmt.Errorf("bench: prefill %s: %w", ds, err)
		}
	}
	return nil
}

// StallReader is the paper's preempted reader: it pins a guard, enters an
// operation and protects one block, then parks there until done reports
// true — holding its reservation the whole time, so EBR's epoch cannot
// advance past it while the bounded schemes keep reclaiming around it. It
// first calls done once the block is protected. On return the block is
// retired and the guard unpinned.
func StallReader(d *wfe.Domain[uint64], done func() bool) {
	g := d.Pin()
	defer d.Unpin(g)
	var root wfe.Atomic[uint64]
	root.Store(g.Alloc(0))
	g.Begin()
	g.Protect(&root, 0)
	for !done() {
		time.Sleep(time.Millisecond)
	}
	g.End()
	g.Retire(root.Load())
}
