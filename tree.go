package wfe

// tree node layout: words 0 and 1 are the child edges (carrying the
// deletion flag as the Ref mark bit and the sibling-freezing tag as the
// Ref flag bit), word 2 the routing/leaf key, word 3 the leaf marker.
const (
	treeLeft   = 0
	treeRight  = 1
	treeKey    = 2
	treeIsLeaf = 3 // 1 for leaves, 0 for internal nodes
)

// Sentinel keys: every real key must be at most TreeKeyMax.
const (
	treeInf2 = ^uint64(0)
	treeInf1 = ^uint64(1)

	// TreeKeyMax is the largest key a Tree accepts; the two values above it
	// are the Natarajan–Mittal ∞1/∞2 sentinels.
	TreeKeyMax = treeInf1 - 1
)

// treeFrozen reports whether an edge carries the deletion flag or the
// sibling tag — either way the child may be mid-unlink and the edge must
// not be crossed.
func treeFrozen[T any](edge Ref[T]) bool { return edge.Marked() || edge.Flagged() }

// Tree is the Natarajan–Mittal lock-free external binary search tree of
// uint64 keys in [0, TreeKeyMax] to T values (PPoPP 2014), the paper's most
// complex lock-free workload (Figures 8 and 11), on the typed Domain
// façade. Internal nodes route (key < node key goes left); every key lives
// in a leaf. Deletion is two-phase: the injection CAS flags the parent→leaf
// edge (the linearization point, the Ref mark bit here), then cleanup tags
// the parent's sibling edge (the Ref flag bit) — freezing the parent — and
// swings the grandparent edge from the parent to the sibling, unlinking
// parent and leaf. It needs 4 protection slots per guard.
//
// Reclamation discipline: traversals never cross a frozen edge — a clean
// edge value read under protection proves the child had not been unlinked
// at the read, so its retirement, if any, postdates the reservation. On
// meeting a frozen edge the traversal helps complete the pending deletion
// and restarts from the root. Every cleanup therefore unlinks exactly one
// internal node and one leaf, and the thread whose grandparent CAS
// succeeds retires both, exactly once.
//
// The plain methods (TryInsert, Delete, Get, TryPut) are guardless: each
// leases a guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them; Len takes no
// guard at all. The Guarded variants take an explicit or pinned Guard and
// skip the lease — use them in hot loops. The writes return
// ErrArenaExhausted when the arena stays full after the Domain's
// emergency-reclamation pipeline. Keys above TreeKeyMax collide with the
// sentinel skeleton and panic at the call.
type Tree[T any] struct {
	d *Domain[T]
	// root ("R") and its left child ("S") are sentinels that are never
	// flagged, tagged or removed; all real keys live under S's left edge.
	root Ref[T]
	s    Ref[T]
}

// NewTree creates an empty tree on the Domain. It leases a guard to
// allocate the five blocks of the sentinel skeleton, parking briefly if
// all guards are busy.
func NewTree[T any](d *Domain[T]) *Tree[T] {
	g := d.Pin()
	defer d.Unpin(g)
	var zero T
	mk := func(key uint64, leaf bool) Ref[T] {
		n := g.Alloc(zero)
		g.StoreMeta(n, treeKey, key)
		if leaf {
			g.StoreMeta(n, treeIsLeaf, 1)
		}
		return n
	}
	t := &Tree[T]{d: d}
	t.root = mk(treeInf2, false)
	t.s = mk(treeInf1, false)
	g.Store(t.s, treeLeft, mk(treeInf1, true))
	g.Store(t.s, treeRight, mk(treeInf2, true))
	g.Store(t.root, treeLeft, t.s)
	g.Store(t.root, treeRight, mk(treeInf2, true))
	return t
}

func (t *Tree[T]) isLeaf(g *Guard[T], n Ref[T]) bool {
	return g.LoadMeta(n, treeIsLeaf) == 1
}

// dir returns the child word to follow for key at an internal node.
func (t *Tree[T]) dir(g *Guard[T], node Ref[T], key uint64) int {
	if key < g.LoadMeta(node, treeKey) {
		return treeLeft
	}
	return treeRight
}

// treeSeek is the traversal result: the leaf terminating the search path,
// its parent, the parent's parent (the cleanup ancestor), plus the clean
// edge value and direction from parent to leaf.
type treeSeek[T any] struct {
	anc, par, leaf Ref[T]
	leafEdge       Ref[T] // clean link value of the parent→leaf edge
	leafDir        int    // which child word of par holds the leaf
}

// seek walks from the root to the leaf on key's search path. It maintains
// protections for the (grandparent, parent, current) window across four
// rotating protection slots and never crosses a frozen edge: on meeting
// one it helps the pending deletion and restarts.
func (t *Tree[T]) seek(g *Guard[T], key uint64, sr *treeSeek[T]) {
retry:
	for {
		gp, par := t.root, t.s
		dir := t.dir(g, par, key)
		igp, ipar, icur, inext := 0, 1, 2, 3
		curEdge := g.ProtectWord(par, dir, icur)
		for {
			cur := curEdge.Clean()
			if t.isLeaf(g, cur) {
				sr.anc, sr.par, sr.leaf = gp, par, cur
				sr.leafEdge = curEdge
				sr.leafDir = dir
				return
			}
			ndir := t.dir(g, cur, key)
			nextEdge := g.ProtectWord(cur, ndir, inext)
			if treeFrozen(nextEdge) {
				// cur is a parent under deletion; finish that deletion and
				// restart so the path window stays on live nodes.
				t.cleanup(g, par, cur)
				continue retry
			}
			gp, par = par, cur
			dir = ndir
			curEdge = nextEdge
			igp, ipar, icur, inext = ipar, icur, inext, igp
		}
	}
}

// cleanup completes a pending deletion at parent par whose grandparent is
// anc: it tags the sibling edge (freezing par), swings anc's edge from par
// to the sibling, and — on winning the swing CAS — retires par and the
// flagged leaf. It reports whether this call performed the unlink.
func (t *Tree[T]) cleanup(g *Guard[T], anc, par Ref[T]) bool {
	leftV := g.Load(par, treeLeft)
	rightV := g.Load(par, treeRight)
	var victimDir, sibDir int
	switch {
	case leftV.Marked():
		victimDir, sibDir = treeLeft, treeRight
	case rightV.Marked():
		victimDir, sibDir = treeRight, treeLeft
	default:
		return false // nothing pending (already helped)
	}

	// Freeze the sibling edge. Bounded retries: the edge can change at most
	// until the tag lands; competitors set the same bit.
	sv := g.Load(par, sibDir)
	for !sv.Flagged() {
		g.CompareAndSwap(par, sibDir, sv, sv.WithFlag())
		sv = g.Load(par, sibDir)
	}

	// Move the sibling up, preserving a pending deletion flag on it but
	// not the tag.
	newEdge := sv.Unflagged()

	// Find which edge of anc holds par; it must be clean to swing.
	var ancDir int
	switch {
	case g.Load(anc, treeLeft).Clean() == par:
		ancDir = treeLeft
	case g.Load(anc, treeRight).Clean() == par:
		ancDir = treeRight
	default:
		return false // anc no longer points at par; someone else unlinked
	}
	if !g.CompareAndSwap(anc, ancDir, par, newEdge) {
		return false
	}
	// We unlinked {par, victim leaf}: retire both, exactly once.
	victim := g.Load(par, victimDir).Clean()
	g.Retire(victim)
	g.Retire(par)
	return true
}

// Delete removes key, reporting whether it was present. The flag CAS on
// the parent→leaf edge is the linearization point; the unlink may be
// completed by any helper.
func (t *Tree[T]) Delete(key uint64) bool {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.DeleteGuarded(g, key)
}

// Get returns the value stored under key.
func (t *Tree[T]) Get(key uint64) (v T, ok bool) {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.GetGuarded(g, key)
}

// Len counts real-key leaves; meaningful only quiescently. It walks the
// tree without a guard, so it never parks.
func (t *Tree[T]) Len() int { return t.countLeaves(t.root) }

// checkKey rejects sentinel-range keys. Letting one through would be
// catastrophic, not just wrong: seek terminates on the ∞1/∞2 sentinel
// leaves for such keys, so a Delete would unlink the S sentinel skeleton
// itself and a Get would report a phantom key present.
func (t *Tree[T]) checkKey(key uint64) {
	if key > TreeKeyMax {
		panic("wfe: Tree key exceeds TreeKeyMax")
	}
}

// TryInsert adds key→val; ok is false (leaving the tree unchanged) when
// the key is already present. When the key is absent and the arena stays
// exhausted after the Domain's emergency-reclamation pipeline, it returns
// ErrArenaExhausted.
func (t *Tree[T]) TryInsert(key uint64, val T) (ok bool, err error) {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.TryInsertGuarded(g, key, val)
}

// TryInsertGuarded is TryInsert on a caller-held guard.
func (t *Tree[T]) TryInsertGuarded(g *Guard[T], key uint64, val T) (ok bool, err error) {
	t.checkKey(key)
	return t.write(g, key, val, false, Ref[T]{}, Ref[T]{})
}

// write is the seek-and-link loop of every Tree write, run inside its own
// Begin/End section with one seek per attempt. A present key is left alone
// unless replace is set, when a fresh leaf swings in at the parent edge and
// the old leaf is retired. An absent key gets a new leaf and a routing node
// between it and the leaf the seek ended on. The batch inserts pass both
// blocks in, allocated before their protection span, and then write cannot
// fail; the per-op paths pass nil Refs, and each block is allocated once a
// seek shows it is needed, so a duplicate-key insert pays nothing. A block
// in hand that goes unused, never published, goes back to the arena.
func (t *Tree[T]) write(g *Guard[T], key uint64, val T, replace bool, newLeaf, newInt Ref[T]) (ok bool, err error) {
	g.Begin()
	defer g.End()
	var sr treeSeek[T]
	var zero T
	for {
		t.seek(g, key, &sr)
		leafKey := g.LoadMeta(sr.leaf, treeKey)
		found := leafKey == key
		if found && !replace {
			if !newLeaf.IsNil() {
				g.Dealloc(newLeaf)
			}
			if !newInt.IsNil() {
				g.Dealloc(newInt)
			}
			return false, nil
		}
		var stale bool
		if newLeaf.IsNil() {
			if newLeaf, stale, err = g.allocInside(val); err != nil {
				return false, err
			}
			if stale {
				continue // the seek window went stale while unprotected
			}
		}
		g.StoreMeta(newLeaf, treeKey, key)
		g.StoreMeta(newLeaf, treeIsLeaf, 1)
		link := newLeaf
		if !found {
			if newInt.IsNil() {
				if newInt, stale, err = g.allocInside(zero); err != nil {
					g.Dealloc(newLeaf)
					return false, err
				}
				if stale {
					continue
				}
			}
			// The new internal node routes between the new leaf and the old one.
			if key < leafKey {
				g.StoreMeta(newInt, treeKey, leafKey)
				g.Store(newInt, treeLeft, newLeaf)
				g.Store(newInt, treeRight, sr.leaf)
			} else {
				g.StoreMeta(newInt, treeKey, key)
				g.Store(newInt, treeLeft, sr.leaf)
				g.Store(newInt, treeRight, newLeaf)
			}
			link = newInt
		}
		if g.CompareAndSwap(sr.par, sr.leafDir, sr.leafEdge, link) {
			if found {
				g.Retire(sr.leaf)
				if !newInt.IsNil() { // wired on an attempt that found key absent
					g.Dealloc(newInt)
				}
			}
			return true, nil
		}
		// Edge changed; if a deletion froze it, help before retrying.
		if treeFrozen(g.Load(sr.par, sr.leafDir)) {
			t.cleanup(g, sr.anc, sr.par)
		}
	}
}

// DeleteGuarded is Delete on a caller-held guard.
func (t *Tree[T]) DeleteGuarded(g *Guard[T], key uint64) bool {
	t.checkKey(key)
	g.Begin()
	defer g.End()
	var sr treeSeek[T]
	// Injection phase.
	for {
		t.seek(g, key, &sr)
		if g.LoadMeta(sr.leaf, treeKey) != key {
			return false
		}
		if g.CompareAndSwap(sr.par, sr.leafDir, sr.leafEdge, sr.leafEdge.WithMark()) {
			break
		}
		// Someone is deleting here (maybe the same leaf); help and retry.
		if treeFrozen(g.Load(sr.par, sr.leafDir)) {
			t.cleanup(g, sr.anc, sr.par)
		}
	}
	// Cleanup phase. The flag CAS made the unlink every traversal's
	// obligation: seek never crosses a frozen edge, so if our own cleanup
	// loses, one completed re-seek — which helps every pending deletion on
	// the way, ours included — proves the flagged victim is off the tree.
	// Comparing the returned leaf against the victim's handle would be
	// wrong, not just redundant: the handle can be recycled into a fresh
	// leaf of the same key, and handle equality would then spin forever on
	// a quiescent tree.
	if !t.cleanup(g, sr.anc, sr.par) {
		t.seek(g, key, &sr)
	}
	return true
}

// GetGuarded is Get on a caller-held guard.
func (t *Tree[T]) GetGuarded(g *Guard[T], key uint64) (v T, ok bool) {
	t.checkKey(key)
	g.Begin()
	defer g.End()
	var sr treeSeek[T]
	t.seek(g, key, &sr)
	if g.LoadMeta(sr.leaf, treeKey) != key {
		return v, false
	}
	return g.Value(sr.leaf), true
}

// TryPut inserts key→val, or replaces an existing key's leaf with a fresh
// one and retires the old leaf — the paper benchmark's put semantics,
// keeping read-mostly workloads on the reclamation path. When the arena
// stays exhausted after the Domain's emergency-reclamation pipeline it
// returns ErrArenaExhausted, leaving the tree unchanged.
func (t *Tree[T]) TryPut(key uint64, val T) error {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.TryPutGuarded(g, key, val)
}

// TryPutGuarded is TryPut on a caller-held guard.
func (t *Tree[T]) TryPutGuarded(g *Guard[T], key uint64, val T) error {
	t.checkKey(key)
	_, err := t.write(g, key, val, true, Ref[T]{}, Ref[T]{})
	return err
}

// TryMultiInsert inserts every key→val pair in one batch: one guard
// lease, one protection span, and both blocks of every insert allocated
// up front (see batch.go). inserted[i] reports whether keys[i] was absent
// and went in. The whole run — a leaf and a routing node per key — is
// allocated before any protection is announced (the per-op
// lazy-allocation optimization cannot be used under an open batch span,
// since an exhaustion stall must never run with reservations held). When
// the arena runs out mid-run the pairs whose blocks were obtained are
// still attempted; attempted reports that prefix length alongside
// ErrArenaExhausted, and inserted[i] is false for every unattempted i —
// callers resume from keys[attempted:].
func (t *Tree[T]) TryMultiInsert(keys []uint64, vals []T) (inserted []bool, attempted int, err error) {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.TryMultiInsertGuarded(g, keys, vals)
}

// TryMultiInsertGuarded is TryMultiInsert on a caller-held guard.
func (t *Tree[T]) TryMultiInsertGuarded(g *Guard[T], keys []uint64, vals []T) (inserted []bool, attempted int, err error) {
	if len(keys) != len(vals) {
		panic("wfe: TryMultiInsert keys/vals length mismatch")
	}
	// Validate every key before allocating: a sentinel-range key must
	// panic with no blocks in flight.
	for _, key := range keys {
		t.checkKey(key)
	}
	var zero T
	leaves := g.scratchNodes(0, len(keys))
	ints := g.scratchNodes(1, len(keys))
	for i := range keys {
		leaf, aerr := g.TryAlloc(vals[i])
		if aerr != nil {
			err = aerr
			break
		}
		ri, aerr := g.TryAlloc(zero)
		if aerr != nil {
			g.Dealloc(leaf)
			err = aerr
			break
		}
		leaves = append(leaves, leaf)
		ints = append(ints, ri)
	}
	inserted = make([]bool, len(keys))
	attempted = g.runBatch(len(leaves), func(i int) bool {
		// Both blocks are in hand, so write allocates nothing and its
		// error is always nil.
		inserted[i], _ = t.write(g, keys[i], vals[i], false, leaves[i], ints[i])
		return true
	})
	return inserted, attempted, err
}

// MultiDelete removes every key in one batch; oks[i] reports whether
// keys[i] was present. Each unlink's internal-node/leaf pair is retired
// as one burst at the end of the batch, so the cleanup cadence ticks
// once instead of once per key.
func (t *Tree[T]) MultiDelete(keys []uint64) (oks []bool) {
	g := t.d.Pin()
	defer t.d.unpin(g)
	return t.MultiDeleteGuarded(g, keys)
}

// MultiDeleteGuarded is MultiDelete on a caller-held guard.
func (t *Tree[T]) MultiDeleteGuarded(g *Guard[T], keys []uint64) (oks []bool) {
	for _, key := range keys {
		t.checkKey(key)
	}
	oks = make([]bool, len(keys))
	g.runBatch(len(keys), func(i int) bool {
		oks[i] = t.DeleteGuarded(g, keys[i])
		return true
	})
	return oks
}

func (t *Tree[T]) countLeaves(n Ref[T]) int {
	if t.d.loadMeta(n, treeIsLeaf) == 1 {
		if t.d.loadMeta(n, treeKey) <= TreeKeyMax {
			return 1
		}
		return 0
	}
	c := 0
	if l := t.d.load(n, treeLeft).Clean(); !l.IsNil() {
		c += t.countLeaves(l)
	}
	if r := t.d.load(n, treeRight).Clean(); !r.IsNil() {
		c += t.countLeaves(r)
	}
	return c
}
