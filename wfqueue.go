package wfe

import (
	"wfe/internal/ds/kpqueue"
	"wfe/internal/mem"
)

// WFQueue is the Kogan–Petrank wait-free MPMC FIFO queue of T (PPoPP 2011)
// on the typed Domain façade — the paper's headline workload: combined with
// the WFE scheme every operation, reclamation included, completes in a
// bounded number of steps (Figures 5a/5b). It needs 3 protection slots per
// guard.
//
// The queue's phase-based helping protocol hands dequeued values across
// threads through a fixed-width handoff word, so the generic payload cannot
// travel inside the queue node itself. Each Enqueue instead boxes its value
// in a private block (holding the T in the Domain's value slab) and
// enqueues the box's handle; the winning dequeuer — the only goroutine that
// ever receives that handle — unboxes the value and returns the block to
// the arena. Boxes are never shared, so they need no reclamation-scheme
// round trip.
//
// The plain methods (Enqueue, Dequeue, Len) are guardless: each leases a
// guard from the Domain's guard runtime for the duration of the operation,
// so any number of goroutines may call them. The Guarded variants take an
// explicit or pinned Guard and skip the lease — use them in hot loops.
type WFQueue[T any] struct{ boxQueue[T] }

// NewWFQueue creates an empty wait-free queue on the Domain. It leases a
// guard to allocate the sentinel node, parking briefly if all guards are
// busy. The queue registers the Domain's MaxGuards tids with the helping
// protocol, so guards from any acquisition path can drive it.
func NewWFQueue[T any](d *Domain[T]) *WFQueue[T] {
	g := d.Pin()
	defer d.Unpin(g)
	return &WFQueue[T]{boxQueue[T]{d, kpqueue.NewTid(liveScheme[T]{d}, d.guards.Cap(), g.tid)}}
}

// queueCore is a wait-free queue of fixed-width words from internal/ds
// (kpqueue or crturn). Its helping protocol moves a value between threads
// as one word, which is why boxQueue enqueues a box handle, not the T.
type queueCore interface {
	EnqueueNode(tid int, node mem.Handle, v uint64)
	Dequeue(tid int) (uint64, bool)
	Len() int
}

// boxQueue is the value-boxing layer WFQueue and TurnQueue share: each
// enqueue stores its T in a private box block and enqueues the box's
// handle in a queue node; the one dequeuer that receives the handle
// unboxes the T and frees the box.
type boxQueue[T any] struct {
	d *Domain[T]
	q queueCore
}

// Enqueue appends v.
func (q *boxQueue[T]) Enqueue(v T) { q.d.must(q.TryEnqueue(v)) }

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *boxQueue[T]) Dequeue() (v T, ok bool) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueGuarded(g)
}

// Len counts queued values; meaningful only quiescently.
func (q *boxQueue[T]) Len() int {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.LenGuarded(g)
}

// TryEnqueue is Enqueue with backpressure: when the arena stays
// exhausted after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (q *boxQueue[T]) TryEnqueue(v T) error {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueGuarded(g, v)
}

// EnqueueGuarded is Enqueue on a caller-held guard.
func (q *boxQueue[T]) EnqueueGuarded(g *Guard[T], v T) { q.d.must(q.TryEnqueueGuarded(g, v)) }

// TryEnqueueGuarded is TryEnqueue on a caller-held guard. The value box
// and the queue node are both allocated before the queue's protected
// section; when the node cannot be had the box goes back to the arena, so
// a failed enqueue leaves the queue and the arena unchanged.
func (q *boxQueue[T]) TryEnqueueGuarded(g *Guard[T], v T) error {
	box, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	node, err := q.d.allocHandle(g.tid)
	if err != nil {
		g.Dealloc(box)
		return err
	}
	q.q.EnqueueNode(g.tid, node, box.handle())
	return nil
}

// DequeueGuarded is Dequeue on a caller-held guard.
func (q *boxQueue[T]) DequeueGuarded(g *Guard[T]) (v T, ok bool) {
	h, ok := q.q.Dequeue(g.tid)
	if !ok {
		return v, false
	}
	// h is the value box's handle, delivered to exactly one dequeuer. The
	// box was never published as a traversable node, so no other goroutine
	// can hold it: unbox and free it directly, without a retire round trip.
	box := Ref[T]{h}
	v = g.Value(box)
	g.Dealloc(box)
	return v, true
}

// EnqueueAll appends every value in slice order under one guard lease.
// The helping protocol manages protection per operation internally, so
// this batch amortizes the lease (and the per-op value-box allocation
// stays as is); it panics when the arena stays exhausted after the
// emergency-reclamation pipeline, with values already enqueued staying
// enqueued (use TryEnqueueAll to observe partial progress).
func (q *boxQueue[T]) EnqueueAll(vs []T) {
	_, err := q.TryEnqueueAll(vs)
	q.d.must(err)
}

// EnqueueAllGuarded is EnqueueAll on a caller-held guard.
func (q *boxQueue[T]) EnqueueAllGuarded(g *Guard[T], vs []T) {
	_, err := q.TryEnqueueAllGuarded(g, vs)
	q.d.must(err)
}

// TryEnqueueAll is EnqueueAll with backpressure: on exhaustion mid-run
// it stops, reporting the enqueued prefix length alongside
// ErrArenaExhausted — callers resume from vs[enqueued:].
func (q *boxQueue[T]) TryEnqueueAll(vs []T) (enqueued int, err error) {
	g := q.d.pinBatch()
	defer q.d.unpin(g)
	return q.TryEnqueueAllGuarded(g, vs)
}

// TryEnqueueAllGuarded is TryEnqueueAll on a caller-held guard.
func (q *boxQueue[T]) TryEnqueueAllGuarded(g *Guard[T], vs []T) (enqueued int, err error) {
	enqueued = g.runLeaseBatch(len(vs), func(i int) bool {
		err = q.TryEnqueueGuarded(g, vs[i])
		return err == nil
	})
	return enqueued, err
}

// DequeueN removes up to n values under one guard lease, stopping early
// when the queue empties. Values come back in FIFO order.
func (q *boxQueue[T]) DequeueN(n int) []T {
	g := q.d.pinBatch()
	defer q.d.unpin(g)
	return q.DequeueNGuarded(g, n)
}

// DequeueNGuarded is DequeueN on a caller-held guard.
func (q *boxQueue[T]) DequeueNGuarded(g *Guard[T], n int) []T {
	out := make([]T, 0, n)
	g.runLeaseBatch(n, func(int) bool {
		v, ok := q.DequeueGuarded(g)
		if ok {
			out = append(out, v)
		}
		return ok
	})
	return out
}

// LenGuarded is Len on a caller-held guard.
func (q *boxQueue[T]) LenGuarded(g *Guard[T]) int { return q.q.Len() }
