package wfe

import (
	"wfe/internal/ds/kpqueue"
	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

// WFQueue is the Kogan–Petrank wait-free MPMC FIFO queue of T (PPoPP 2011)
// on the typed Domain façade — the paper's headline workload: combined with
// the WFE scheme every operation, reclamation included, completes in a
// bounded number of steps (Figures 5a/5b). It needs 3 protection slots per
// guard.
//
// Each value travels in its own queue node: TryEnqueue allocates one block
// and writes the T into the node's value-slab entry before publishing it.
// The dequeue the node is returned to reads the T back and zeroes the
// entry; the node stays allocated until that guard's next dequeue.
//
// The plain methods (TryEnqueue, Dequeue, Len) are guardless: each leases
// a guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops. The writes return ErrArenaExhausted when the arena stays
// full after the Domain's emergency-reclamation pipeline.
type WFQueue[T any] struct{ nodeQueue[T] }

// NewWFQueue creates an empty wait-free queue on the Domain. It leases a
// guard to allocate the sentinel node, parking briefly if all guards are
// busy. The queue registers the Domain's MaxGuards tids with the helping
// protocol, so guards from any acquisition path can drive it.
func NewWFQueue[T any](d *Domain[T]) *WFQueue[T] {
	g := d.Pin()
	defer d.Unpin(g)
	s, err := d.allocHandle(g.tid)
	d.must(err)
	return &WFQueue[T]{nodeQueue[T]{d, kpqueue.New(d.arena, d.guards.Cap(), s)}}
}

// queueCore is a wait-free queue of nodes from internal/ds (kpqueue or
// crturn). Each operation takes the live scheme, which nodeQueue loads
// once per call: Switch swaps the scheme only while no guard is held, so
// no operation straddles two schemes. A node Dequeue returns stays
// allocated until the same tid's next Dequeue.
type queueCore interface {
	EnqueueNode(s reclaim.Scheme, tid int, node mem.Handle)
	Dequeue(s reclaim.Scheme, tid int) (mem.Handle, bool)
	Len() int
}

// nodeQueue is the typed layer WFQueue and TurnQueue share: it keeps each
// enqueued T in the value-slab entry of its own queue node.
type nodeQueue[T any] struct {
	d *Domain[T]
	q queueCore
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *nodeQueue[T]) Dequeue() (v T, ok bool) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueGuarded(g)
}

// Len counts queued values; meaningful only quiescently.
func (q *nodeQueue[T]) Len() int {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.LenGuarded(g)
}

// TryEnqueue appends v. When the arena stays exhausted after the
// Domain's emergency-reclamation pipeline it returns ErrArenaExhausted,
// leaving the queue unchanged.
func (q *nodeQueue[T]) TryEnqueue(v T) error {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueGuarded(g, v)
}

// TryEnqueueGuarded is TryEnqueue on a caller-held guard. The node is
// allocated before the queue's protected section, so a failed enqueue
// leaves the queue and the arena unchanged.
func (q *nodeQueue[T]) TryEnqueueGuarded(g *Guard[T], v T) error {
	node, err := q.d.allocHandle(g.tid)
	if err != nil {
		return err
	}
	*q.d.vals.At(node - 1) = v
	q.q.EnqueueNode(q.d.scheme().s, g.tid, node)
	return nil
}

// DequeueGuarded is Dequeue on a caller-held guard.
func (q *nodeQueue[T]) DequeueGuarded(g *Guard[T]) (v T, ok bool) {
	h, ok := q.q.Dequeue(q.d.scheme().s, g.tid)
	if !ok {
		return v, false
	}
	// The node stays allocated until this tid's next dequeue: zero its
	// value entry once read, so a node the queue holds pins no value.
	v = g.Value(Ref[T]{h})
	var zero T
	*q.d.vals.At(h - 1) = zero
	return v, true
}

// TryEnqueueAll appends every value in slice order under one guard
// lease. The helping protocol manages protection per operation
// internally, so this batch amortizes the lease (each value still
// allocates its own node per enqueue). On exhaustion mid-run it stops,
// reporting the enqueued prefix length alongside ErrArenaExhausted —
// callers resume from vs[enqueued:].
func (q *nodeQueue[T]) TryEnqueueAll(vs []T) (enqueued int, err error) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueAllGuarded(g, vs)
}

// TryEnqueueAllGuarded is TryEnqueueAll on a caller-held guard.
func (q *nodeQueue[T]) TryEnqueueAllGuarded(g *Guard[T], vs []T) (enqueued int, err error) {
	enqueued = g.runLeaseBatch(len(vs), func(i int) bool {
		err = q.TryEnqueueGuarded(g, vs[i])
		return err == nil
	})
	return enqueued, err
}

// DequeueN removes up to n values under one guard lease, stopping early
// when the queue empties. Values come back in FIFO order.
func (q *nodeQueue[T]) DequeueN(n int) []T {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueNGuarded(g, n)
}

// DequeueNGuarded is DequeueN on a caller-held guard.
func (q *nodeQueue[T]) DequeueNGuarded(g *Guard[T], n int) []T {
	out := g.d.batchResult(n)
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
func (q *nodeQueue[T]) LenGuarded(g *Guard[T]) int { return q.q.Len() }
