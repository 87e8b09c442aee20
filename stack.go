package wfe

// stack node layout: word 0 = next link.
const stackNext = 0

// Stack is a Treiber lock-free stack of T — the paper's usage example for
// the reclamation API (Figure 2), here on the typed Domain façade. It
// needs 1 protection slot per guard.
//
// The plain methods (TryPush, Pop) are guardless: each leases a guard
// from the Domain's guard runtime for the duration of the operation, so
// any number of goroutines may call them; Len takes no guard at all. The
// Guarded variants take an explicit or pinned Guard and skip the lease —
// use them in hot loops. The writes return ErrArenaExhausted when the
// arena stays full after the Domain's emergency-reclamation pipeline.
type Stack[T any] struct {
	d   *Domain[T]
	top Atomic[T]
}

// NewStack creates an empty stack on the Domain.
func NewStack[T any](d *Domain[T]) *Stack[T] {
	return &Stack[T]{d: d}
}

// Pop removes and returns the top value; ok is false on an empty stack.
func (s *Stack[T]) Pop() (v T, ok bool) {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.PopGuarded(g)
}

// Len counts the nodes; it is only meaningful quiescently. It walks the
// stack without a guard, so it never parks.
func (s *Stack[T]) Len() int {
	n := 0
	for r := s.top.Load(); !r.IsNil(); r = s.d.load(r, stackNext) {
		n++
	}
	return n
}

// TryPush adds v to the top of the stack. When the arena stays exhausted
// after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted, leaving the stack unchanged.
func (s *Stack[T]) TryPush(v T) error {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.TryPushGuarded(g, v)
}

// TryPushGuarded is TryPush on a caller-held guard.
func (s *Stack[T]) TryPushGuarded(g *Guard[T], v T) error {
	// Allocate before entering the protected section: if the arena is
	// exhausted, the emergency pipeline then stalls with no protection
	// announced, so it cannot pin the epoch or any era against the
	// concurrent scans it is waiting on.
	n, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	s.pushNode(g, n)
	return nil
}

// pushNode links the pre-allocated node n as the new top, inside its own
// Begin/End section.
func (s *Stack[T]) pushNode(g *Guard[T], n Ref[T]) {
	g.Begin()
	defer g.End()
	for {
		old := s.top.Load()
		g.Store(n, stackNext, old)
		if s.top.CompareAndSwap(old, n) {
			return
		}
	}
}

// PopGuarded is Pop on a caller-held guard.
func (s *Stack[T]) PopGuarded(g *Guard[T]) (v T, ok bool) {
	g.Begin()
	defer g.End()
	for {
		top := g.Protect(&s.top, 0)
		if top.IsNil() {
			return v, false
		}
		next := g.Load(top, stackNext)
		if s.top.CompareAndSwap(top, next) {
			v = g.Value(top)
			g.Retire(top)
			return v, true
		}
	}
}

// TryPushAll pushes every value in one batch: one guard lease, one
// protection span, nodes allocated up front (see batch.go). Values land
// on the stack in slice order, so vs[len-1] ends up on top. The whole run
// is allocated before any protection is announced; on exhaustion mid-run
// the values whose nodes were obtained are still pushed and TryPushAll
// reports that prefix length alongside ErrArenaExhausted — callers resume
// from vs[pushed:].
func (s *Stack[T]) TryPushAll(vs []T) (pushed int, err error) {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.TryPushAllGuarded(g, vs)
}

// TryPushAllGuarded is TryPushAll on a caller-held guard.
func (s *Stack[T]) TryPushAllGuarded(g *Guard[T], vs []T) (pushed int, err error) {
	nodes, err := g.allocRun(vs)
	pushed = g.runBatch(len(nodes), func(i int) bool {
		s.pushNode(g, nodes[i])
		return true
	})
	return pushed, err
}

// PopN pops up to n values in one batch, stopping early when the stack
// empties. The popped nodes are retired as one burst at the end of the
// batch, so the cleanup cadence ticks once instead of once per pop.
// Values come back in pop order (top first).
func (s *Stack[T]) PopN(n int) []T {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.PopNGuarded(g, n)
}

// PopNGuarded is PopN on a caller-held guard.
func (s *Stack[T]) PopNGuarded(g *Guard[T], n int) []T {
	out := g.d.batchResult(n)
	g.runBatch(n, func(int) bool {
		v, ok := s.PopGuarded(g)
		if ok {
			out = append(out, v)
		}
		return ok
	})
	return out
}
