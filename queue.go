package wfe

// queue node layout: word 0 = next link.
const queueNext = 0

// queue protection slots: dequeue protects head then next; enqueue reuses
// slot 0 for the tail.
const (
	queueSlotFirst = 0
	queueSlotNext  = 1
	queueSlotLast  = 0
)

// Queue is a Michael–Scott lock-free MPMC FIFO queue of T on the typed
// Domain façade. It needs 2 protection slots per guard.
//
// The plain methods (Enqueue, Dequeue, Len) are guardless: each leases a
// guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops.
type Queue[T any] struct {
	d    *Domain[T]
	head Atomic[T]
	tail Atomic[T]
}

// NewQueue creates an empty queue on the Domain. It leases a guard to
// allocate the sentinel node, parking briefly if all guards are busy.
func NewQueue[T any](d *Domain[T]) *Queue[T] {
	q := &Queue[T]{d: d}
	g := d.Pin()
	defer d.Unpin(g)
	var zero T
	s := g.Alloc(zero)
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// Enqueue appends v.
func (q *Queue[T]) Enqueue(v T) { q.d.must(q.TryEnqueue(v)) }

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueGuarded(g)
}

// Len counts queued values; meaningful only quiescently.
func (q *Queue[T]) Len() int {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.LenGuarded(g)
}

// TryEnqueue is Enqueue with backpressure: when the arena stays
// exhausted after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (q *Queue[T]) TryEnqueue(v T) error {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueGuarded(g, v)
}

// EnqueueGuarded is Enqueue on a caller-held guard.
func (q *Queue[T]) EnqueueGuarded(g *Guard[T], v T) { q.d.must(q.TryEnqueueGuarded(g, v)) }

// TryEnqueueGuarded is TryEnqueue on a caller-held guard.
func (q *Queue[T]) TryEnqueueGuarded(g *Guard[T], v T) error {
	// Allocate before entering the protected section (see Stack.TryPushGuarded).
	node, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	g.Begin()
	defer g.End()
	q.enqueueNode(g, node)
	return nil
}

// enqueueNode links the pre-allocated node after the current tail,
// helping a lagging tail along. The caller owns the protected section.
func (q *Queue[T]) enqueueNode(g *Guard[T], node Ref[T]) {
	for {
		last := g.Protect(&q.tail, queueSlotLast)
		next := g.Load(last, queueNext)
		if q.tail.Load() != last {
			continue
		}
		if !next.IsNil() { // tail lagging: help advance
			q.tail.CompareAndSwap(last, next)
			continue
		}
		if g.CompareAndSwap(last, queueNext, Ref[T]{}, node) {
			q.tail.CompareAndSwap(last, node)
			return
		}
	}
}

// DequeueGuarded is Dequeue on a caller-held guard.
func (q *Queue[T]) DequeueGuarded(g *Guard[T]) (v T, ok bool) {
	g.Begin()
	defer g.End()
	for {
		first := g.Protect(&q.head, queueSlotFirst)
		last := q.tail.Load()
		next := g.ProtectWord(first, queueNext, queueSlotNext)
		if q.head.Load() != first {
			continue
		}
		if first == last {
			if next.IsNil() {
				return v, false
			}
			q.tail.CompareAndSwap(last, next) // tail lagging
			continue
		}
		if next.IsNil() {
			continue // stale snapshot
		}
		// Read the value before unlinking: next is still reachable from
		// head, so it is not retired and our protection covers it.
		v = g.Value(next)
		if q.head.CompareAndSwap(first, next) {
			g.Retire(first)
			return v, true
		}
	}
}

// EnqueueAll appends every value in slice order in one batch: one guard
// lease, one protection span where the scheme allows it, nodes allocated
// up front (see batch.go). Like Enqueue it panics when the arena stays
// exhausted after the emergency-reclamation pipeline; values already
// enqueued stay enqueued (use TryEnqueueAll to observe partial
// progress).
func (q *Queue[T]) EnqueueAll(vs []T) {
	_, err := q.TryEnqueueAll(vs)
	q.d.must(err)
}

// EnqueueAllGuarded is EnqueueAll on a caller-held guard.
func (q *Queue[T]) EnqueueAllGuarded(g *Guard[T], vs []T) {
	_, err := q.TryEnqueueAllGuarded(g, vs)
	q.d.must(err)
}

// TryEnqueueAll is EnqueueAll with backpressure: the whole run is
// allocated before any protection is announced; on exhaustion mid-run
// the values whose nodes were obtained are still enqueued and
// TryEnqueueAll reports that prefix length alongside ErrArenaExhausted —
// callers resume from vs[enqueued:].
func (q *Queue[T]) TryEnqueueAll(vs []T) (enqueued int, err error) {
	g := q.d.pinBatch()
	defer q.d.unpin(g)
	return q.TryEnqueueAllGuarded(g, vs)
}

// TryEnqueueAllGuarded is TryEnqueueAll on a caller-held guard.
func (q *Queue[T]) TryEnqueueAllGuarded(g *Guard[T], vs []T) (enqueued int, err error) {
	nodes, err := g.allocRun(vs)
	enqueued = g.runBatch(len(nodes), func(i int) bool {
		q.enqueueNode(g, nodes[i])
		return true
	})
	return enqueued, err
}

// DequeueN removes up to n values in one batch, stopping early when the
// queue empties. The unlinked nodes are retired as one burst at the end
// of the batch, so the cleanup cadence ticks once instead of once per
// dequeue. Values come back in FIFO order.
func (q *Queue[T]) DequeueN(n int) []T {
	g := q.d.pinBatch()
	defer q.d.unpin(g)
	return q.DequeueNGuarded(g, n)
}

// DequeueNGuarded is DequeueN on a caller-held guard.
func (q *Queue[T]) DequeueNGuarded(g *Guard[T], n int) []T {
	out := g.d.batchResult(n)
	g.runBatch(n, func(int) bool {
		v, ok := q.DequeueGuarded(g)
		if ok {
			out = append(out, v)
		}
		return ok
	})
	return out
}

// LenGuarded is Len on a caller-held guard.
func (q *Queue[T]) LenGuarded(g *Guard[T]) int {
	n := 0
	for r := q.head.Load(); !r.IsNil(); r = g.Load(r, queueNext) {
		if !g.Load(r, queueNext).IsNil() {
			n++
		}
	}
	return n
}
