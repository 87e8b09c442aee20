package wfe

import (
	"math/bits"

	"wfe/internal/failpoint"
)

// fpPutSwing fires in a replacing put between the CAS that links the
// new node behind the old one and the swing of the predecessor. Armed
// with a sleep, it parks the putter in that window so tests can check
// that readers see the new value throughout.
var fpPutSwing = failpoint.New("hashmap-put-swing")

// map node layout: word 0 = next link (mark bit = logically deleted),
// word 1 = key (immutable after publication).
const (
	mapNext = 0
	mapKey  = 1
)

// Three map protection slots rotate across the prev/cur/next roles of the
// traversal window, exactly as in the paper's list benchmark (see find).

// HashMap is Michael's lock-free hash map of uint64 keys to T values on
// the typed Domain façade (the structure behind the paper's Figures 7 and
// 10): a fixed array of buckets, each a Harris–Michael sorted linked list.
// A key's bucket is the top log2(buckets) bits of its Fibonacci product
// key*2^64/φ; the product's middle bits would send dense keys (0, 1, 2, ...)
// to a fraction of the buckets and lengthen every chain several-fold.
// It needs 3 protection slots per guard (Options.MaxSlots >= 3, which the
// default satisfies).
//
// The plain methods (TryInsert, Delete, Get, TryPut, Len) are guardless:
// each leases a guard from the Domain's guard runtime for the duration of
// the operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops. The writes return ErrArenaExhausted when the arena stays
// full after the Domain's emergency-reclamation pipeline.
type HashMap[T any] struct {
	d       *Domain[T]
	buckets []Atomic[T]
	shift   uint // 64 - log2(len(buckets)), see bucket
}

// NewHashMap creates a map with at least minBuckets buckets (rounded up to
// a power of two) on the Domain. Size buckets near the expected key count
// to keep chains short.
func NewHashMap[T any](d *Domain[T], minBuckets int) *HashMap[T] {
	n, shift := fibBuckets(minBuckets)
	return &HashMap[T]{d: d, buckets: make([]Atomic[T], n), shift: shift}
}

// bucket picks the chain from the top bits of the key's Fibonacci product
// (fibBucket): those spread dense keys evenly, the middle bits do not.
func (m *HashMap[T]) bucket(key uint64) *Atomic[T] {
	return &m.buckets[fibBucket(key, m.shift)]
}

// fibBuckets rounds minBuckets (at least 1) up to a power of two n and
// returns n with the shift that makes fibBucket index n buckets:
// 64 - log2(n).
func fibBuckets(minBuckets int) (n int, shift uint) {
	lg := bits.Len(uint(max(minBuckets, 1) - 1))
	return 1 << lg, uint(64 - lg)
}

// fibBucket is the bucket index: the top 64-shift bits of key*2^64/φ,
// Fibonacci multiplicative hashing (Knuth, TAOCP vol. 3 §6.4). The top
// bits are floor(n·frac(key/φ)), which spreads consecutive keys evenly
// over n buckets. Lower bits of the same product would not: they are the
// top bits of key times the multiplier's low-order bits, which carry none
// of φ's spreading, and dense keys 0..2^19-1 taken from bits 32-50 fill
// only 92k of 2^19 buckets with chains of up to 10. With one bucket the
// shift is 64 and Go's shift-past-width gives index 0.
func fibBucket(key uint64, shift uint) uint64 {
	return key * 0x9E3779B97F4A7C15 >> shift
}

// window is the result of a traversal: the node owning the link to cur
// (nil Ref = the bucket head), and the clean link values of cur and its
// successor.
type window[T any] struct {
	prev Ref[T]
	cur  Ref[T] // nil means end of chain
	next Ref[T] // clean successor link of cur (valid when cur != nil)
}

// loadPrev re-reads the link out of which cur was found, mark bit
// included, so the caller can detect the window moving under it.
func (m *HashMap[T]) loadPrev(g *Guard[T], head *Atomic[T], prev Ref[T]) Ref[T] {
	if prev.IsNil() {
		return head.Load()
	}
	return g.Load(prev, mapNext)
}

// casPrev swings the link out of which cur was found.
func (m *HashMap[T]) casPrev(g *Guard[T], head *Atomic[T], prev, old, new Ref[T]) bool {
	if prev.IsNil() {
		return head.CompareAndSwap(old, new)
	}
	return g.CompareAndSwap(prev, mapNext, old, new)
}

// find positions the window at the first node with key >= key, unlinking
// marked nodes it passes (Michael's find). The three protection slots
// rotate across the prev/cur/next roles, so at most three protections
// cover the whole traversal — what lets bounded schemes (HP, HE, WFE)
// manage an unbounded chain.
func (m *HashMap[T]) find(g *Guard[T], head *Atomic[T], key uint64) (bool, window[T]) {
retry:
	for {
		var prev Ref[T]
		iCur, iNext := 1, 2
		iPrev := 0
		cur := g.Protect(head, iCur)
		for {
			if cur.IsNil() {
				return false, window[T]{prev: prev, cur: cur}
			}
			next := g.ProtectWord(cur, mapNext, iNext)
			if m.loadPrev(g, head, prev) != cur {
				continue retry // window moved under us
			}
			if next.Marked() {
				// cur is logically deleted: unlink it here.
				clean := next.Unmarked()
				if !m.casPrev(g, head, prev, cur, clean) {
					continue retry
				}
				g.Retire(cur)
				cur = clean
				iCur, iNext = iNext, iCur
				continue
			}
			ckey := g.LoadMeta(cur, mapKey)
			if ckey >= key {
				return ckey == key, window[T]{prev: prev, cur: cur, next: next}
			}
			prev = cur
			iPrev, iCur, iNext = iCur, iNext, iPrev
			cur = next
		}
	}
}

// Delete removes key, reporting whether it was present. The victim is
// marked first (the linearization point) and unlinked here or by a later
// traversal.
func (m *HashMap[T]) Delete(key uint64) bool {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.DeleteGuarded(g, key)
}

// Get returns the value stored under key.
func (m *HashMap[T]) Get(key uint64) (v T, ok bool) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.GetGuarded(g, key)
}

// Len counts reachable, unmarked nodes; meaningful only quiescently.
func (m *HashMap[T]) Len() int {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.LenGuarded(g)
}

// TryInsert adds key→val; ok is false (leaving the map unchanged) when
// the key is already present. When the key is absent and the arena stays
// exhausted after the Domain's emergency-reclamation pipeline, it returns
// ErrArenaExhausted.
func (m *HashMap[T]) TryInsert(key uint64, val T) (ok bool, err error) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.TryInsertGuarded(g, key, val)
}

// TryInsertGuarded is TryInsert on a caller-held guard.
func (m *HashMap[T]) TryInsertGuarded(g *Guard[T], key uint64, val T) (ok bool, err error) {
	g.Begin()
	defer g.End()
	head := m.bucket(key)
	var n Ref[T]
	for {
		found, w := m.find(g, head, key)
		if found {
			if !n.IsNil() {
				g.Dealloc(n) // never published: no reader can hold it
			}
			return false, nil
		}
		if n.IsNil() {
			// Allocate only once the key is known absent, so a lookup-heavy
			// workload never pays allocation (or pressure) for misses that
			// turn out to be hits.
			var stale bool
			if n, stale, err = g.allocInside(val); err != nil {
				return false, err
			}
			g.StoreMeta(n, mapKey, key)
			if stale {
				continue // the window went stale while unprotected
			}
		}
		g.Store(n, mapNext, w.cur)
		if m.casPrev(g, head, w.prev, w.cur, n) {
			return true, nil
		}
	}
}

// DeleteGuarded is Delete on a caller-held guard.
func (m *HashMap[T]) DeleteGuarded(g *Guard[T], key uint64) bool {
	g.Begin()
	defer g.End()
	head := m.bucket(key)
	for {
		found, w := m.find(g, head, key)
		if !found {
			return false
		}
		if !g.CompareAndSwap(w.cur, mapNext, w.next, w.next.WithMark()) {
			continue // successor changed or someone else marked it
		}
		if m.casPrev(g, head, w.prev, w.cur, w.next) {
			g.Retire(w.cur)
		}
		return true
	}
}

// GetGuarded is Get on a caller-held guard.
func (m *HashMap[T]) GetGuarded(g *Guard[T], key uint64) (v T, ok bool) {
	g.Begin()
	defer g.End()
	found, w := m.find(g, m.bucket(key), key)
	if !found {
		return v, false
	}
	return g.Value(w.cur), true
}

// TryPut inserts key→val, or replaces an existing key's node with a
// freshly allocated one; a concurrent Get sees the old value or the new
// one, never a missing key. Replacement rather than
// in-place mutation is what keeps values safely immutable for concurrent
// readers — and why read-mostly workloads still exercise reclamation
// (paper §5). When the arena stays exhausted after the Domain's
// emergency-reclamation pipeline it returns ErrArenaExhausted, leaving
// the map unchanged.
func (m *HashMap[T]) TryPut(key uint64, val T) error {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.TryPutGuarded(g, key, val)
}

// TryPutGuarded is TryPut on a caller-held guard.
func (m *HashMap[T]) TryPutGuarded(g *Guard[T], key uint64, val T) error {
	// A put always consumes a node (insert and replace both link a fresh
	// one), so allocate before entering the protected section: an
	// exhausted-arena stall then runs the emergency pipeline with no
	// reservations held and no epoch announced, leaving every block
	// reclaimable by the concurrent scans the pipeline waits on.
	n, err := g.TryAlloc(val)
	if err != nil {
		return err
	}
	m.putNode(g, key, n)
	return nil
}

// putNode stamps the pre-allocated node n with key and links it,
// replacing any existing node, inside its own Begin/End section; n is
// consumed unconditionally.
//
// A replacement is one CAS that both deletes the old node and links n
// behind it: the old node's link goes from its successor to n, marked.
// A traversal that meets the marked node unlinks it and lands on n,
// which holds the same key, so no reader ever misses the key. The
// predecessor is swung to n afterwards, by this put or by any traversal,
// and whichever wins that CAS retires the old node.
func (m *HashMap[T]) putNode(g *Guard[T], key uint64, n Ref[T]) {
	g.Begin()
	defer g.End()
	g.StoreMeta(n, mapKey, key)
	head := m.bucket(key)
	for {
		found, w := m.find(g, head, key)
		if found {
			g.Store(n, mapNext, w.next)
			if !g.CompareAndSwap(w.cur, mapNext, w.next, n.WithMark()) {
				continue // successor changed or another write marked it
			}
			_ = fpPutSwing.Eval(g.tid) // sleep-only site; the put has linearized
			if m.casPrev(g, head, w.prev, w.cur, n) {
				g.Retire(w.cur)
			}
			return
		}
		g.Store(n, mapNext, w.cur)
		if m.casPrev(g, head, w.prev, w.cur, n) {
			return
		}
	}
}

// MultiGet looks up every key in one batch: one guard lease and — on
// era, epoch and interval schemes — one protection span cover the whole
// burst (see batch.go for the amortization model). Results are
// positional: vals[i], oks[i] answer keys[i].
func (m *HashMap[T]) MultiGet(keys []uint64) (vals []T, oks []bool) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.MultiGetGuarded(g, keys)
}

// MultiGetGuarded is MultiGet on a caller-held guard.
func (m *HashMap[T]) MultiGetGuarded(g *Guard[T], keys []uint64) (vals []T, oks []bool) {
	vals = make([]T, len(keys))
	oks = make([]bool, len(keys))
	g.runBatch(len(keys), func(i int) bool {
		vals[i], oks[i] = m.GetGuarded(g, keys[i])
		return true
	})
	return vals, oks
}

// MultiDelete removes every key in one batch; oks[i] reports whether
// keys[i] was present. The unlinked nodes are retired as one burst at
// the end of the batch, so the cleanup cadence ticks once instead of
// once per key.
func (m *HashMap[T]) MultiDelete(keys []uint64) (oks []bool) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.MultiDeleteGuarded(g, keys)
}

// MultiDeleteGuarded is MultiDelete on a caller-held guard.
func (m *HashMap[T]) MultiDeleteGuarded(g *Guard[T], keys []uint64) (oks []bool) {
	oks = make([]bool, len(keys))
	g.runBatch(len(keys), func(i int) bool {
		oks[i] = m.DeleteGuarded(g, keys[i])
		return true
	})
	return oks
}

// TryMultiPut stores every key→val pair in one batch, each as TryPut
// would. Every node the batch needs is allocated up front, before any
// protection is announced. When the arena runs out mid-run the pairs
// whose nodes were obtained are still applied, and TryMultiPut reports
// that prefix length alongside ErrArenaExhausted — callers resume from
// keys[applied:].
func (m *HashMap[T]) TryMultiPut(keys []uint64, vals []T) (applied int, err error) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.TryMultiPutGuarded(g, keys, vals)
}

// TryMultiPutGuarded is TryMultiPut on a caller-held guard.
func (m *HashMap[T]) TryMultiPutGuarded(g *Guard[T], keys []uint64, vals []T) (applied int, err error) {
	if len(keys) != len(vals) {
		panic("wfe: TryMultiPut keys/vals length mismatch")
	}
	nodes, err := g.allocRun(vals)
	applied = g.runBatch(len(nodes), func(i int) bool {
		m.putNode(g, keys[i], nodes[i])
		return true
	})
	return applied, err
}

// LenGuarded is Len on a caller-held guard.
func (m *HashMap[T]) LenGuarded(g *Guard[T]) int {
	n := 0
	for i := range m.buckets {
		for r := m.buckets[i].Load(); !r.IsNil(); {
			next := g.Load(r, mapNext)
			if !next.Marked() {
				n++
			}
			r = next.Unmarked()
		}
	}
	return n
}
