package wfe

import "wfe/internal/ds/crturn"

// TurnQueue is the CRTurn wait-free MPMC FIFO queue of T (Ramalhete &
// Correia), the second wait-free structure of the paper's evaluation
// (Figures 5c/5d). Enqueuers announce nodes that helpers link in "turn"
// order; dequeuers announce requests that helpers satisfy by handing over
// the head's successor — so every operation completes within one full turn
// regardless of scheduling. It needs 2 protection slots per guard.
//
// Like WFQueue, each value travels in its own queue node's value-slab
// entry: TryEnqueue allocates one block, and the dequeue the node is handed
// to reads the T back and zeroes the entry. The receiver keeps the handed
// node allocated until the same guard's next successful dequeue.
//
// The plain methods (TryEnqueue, Dequeue, Len) are guardless: each leases
// a guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops. The writes return ErrArenaExhausted when the arena stays
// full after the Domain's emergency-reclamation pipeline.
type TurnQueue[T any] struct{ nodeQueue[T] }

// NewTurnQueue creates an empty CRTurn queue on the Domain. It leases a
// guard to allocate the sentinel node, parking briefly if all guards are
// busy. The turn protocol's claim word holds at most 254 thread ids, so
// the Domain must be configured with MaxGuards < 255 — set it explicitly
// rather than inheriting the GOMAXPROCS default, which exceeds the limit
// on very large machines; larger configurations panic here, at
// construction.
func NewTurnQueue[T any](d *Domain[T]) *TurnQueue[T] {
	g := d.Pin()
	defer d.Unpin(g)
	s, err := d.allocHandle(g.tid)
	d.must(err)
	return &TurnQueue[T]{nodeQueue[T]{d, crturn.New(liveScheme[T]{d}, d.guards.Cap(), s)}}
}
