// Package kpqueue implements the Kogan–Petrank wait-free queue (PPoPP 2011)
// over the reclamation interface. The paper highlights this structure: the
// original relies on a garbage collector, and WFE makes it, for the first
// time, fully wait-free including reclamation (Figure 5a/5b).
//
// The queue is Michael–Scott shaped with phase-based helping: every
// operation publishes an operation descriptor, computes a phase higher than
// every phase it can see, and then helps all pending operations with lower
// or equal phases before its own completes. Dequeues claim the current
// sentinel by CASing its deqTid field; the claimed sentinel's successor
// becomes the new sentinel, and Dequeue returns it to the caller, which
// keeps the value beside the node. A node is retired on the second of two
// releases: by the dequeuer that claimed it as sentinel, right after that
// dequeue, and by the dequeuer it was returned to, at that thread's next
// dequeue. The constructor's sentinel starts with one release counted.
//
// The per-thread descriptor — the paper's {phase, pending, enqueue, node} —
// packs into one word with the node handle in the low bits, which doubles
// as the hazard target for the HP scheme.
package kpqueue

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

const (
	nextWord    = 0 // successor link
	deqTidWord  = 1 // claiming dequeuer + 1; 0 = unclaimed
	enqTidWord  = 2 // enqueuer + 1 (set before publication)
	releaseWord = 3 // 1 once one of the node's two releases happened

	// descriptor layout: | phase (36) | enqueue (1) | pending (1) | node (26) |
	descPendingBit = 1 << pack.PtrBits
	descEnqueueBit = 1 << (pack.PtrBits + 1)
	descPhaseShift = pack.PtrBits + 2
)

func makeDesc(phase uint64, pending, enqueue bool, node mem.Handle) uint64 {
	d := phase<<descPhaseShift | node&pack.PtrMask
	if pending {
		d |= descPendingBit
	}
	if enqueue {
		d |= descEnqueueBit
	}
	return d
}

func descPhase(d uint64) uint64    { return d >> descPhaseShift }
func descPending(d uint64) bool    { return d&descPendingBit != 0 }
func descEnqueue(d uint64) bool    { return d&descEnqueueBit != 0 }
func descNode(d uint64) mem.Handle { return d & pack.HandleMask }

// reservation indices
const (
	hpFirst = 0 // head snapshot
	hpLast  = 1 // tail snapshot
	hpNext  = 2 // successor of head/tail
)

type stateSlot struct {
	desc atomic.Uint64
	held mem.Handle // node last returned by Dequeue; owner-only
	_    [48]byte
}

// Queue is a wait-free multi-producer multi-consumer FIFO queue.
type Queue struct {
	smr        reclaim.Scheme
	maxThreads int
	head       atomic.Uint64 // sentinel handle
	tail       atomic.Uint64
	state      []stateSlot
}

// New creates an empty queue for up to maxThreads registered threads
// around the sentinel block s, which the caller allocated from smr's arena.
func New(smr reclaim.Scheme, maxThreads int, s mem.Handle) *Queue {
	q := &Queue{smr: smr, maxThreads: maxThreads, state: make([]stateSlot, maxThreads)}
	a := smr.Arena()
	a.StoreWord(s, nextWord, 0)
	a.StoreWord(s, deqTidWord, 0)
	a.StoreWord(s, enqTidWord, 0)
	a.StoreWord(s, releaseWord, 1) // no dequeuer receives the sentinel
	q.head.Store(s)
	q.tail.Store(s)
	for i := range q.state {
		q.state[i].desc.Store(makeDesc(0, false, true, 0))
	}
	return q
}

// maxPhase scans every descriptor for the highest announced phase.
func (q *Queue) maxPhase() uint64 {
	var max uint64
	for i := 0; i < q.maxThreads; i++ {
		if p := descPhase(q.state[i].desc.Load()); p > max {
			max = p
		}
	}
	return max
}

func (q *Queue) isStillPending(i int, phase uint64) bool {
	d := q.state[i].desc.Load()
	return descPending(d) && descPhase(d) <= phase
}

// EnqueueNode appends node, a block tid allocated and has not published.
// Taking the node from the caller keeps the allocation ahead of the
// protected section, so an allocation that stalls on an exhausted arena
// holds no reservation.
func (q *Queue) EnqueueNode(tid int, node mem.Handle) {
	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	a := q.smr.Arena()

	a.StoreWord(node, nextWord, 0)
	a.StoreWord(node, deqTidWord, 0)
	a.StoreWord(node, enqTidWord, uint64(tid)+1)
	a.StoreWord(node, releaseWord, 0)

	phase := q.maxPhase() + 1
	q.state[tid].desc.Store(makeDesc(phase, true, true, node))
	q.help(tid, phase)
	q.helpFinishEnq(tid)
}

// Dequeue removes the oldest node and returns it; ok is false when the
// queue is empty. The node stays allocated until tid's next Dequeue, which
// releases it.
func (q *Queue) Dequeue(tid int) (node mem.Handle, ok bool) {
	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	a := q.smr.Arena()
	st := &q.state[tid]
	if st.held != 0 {
		q.release(tid, st.held)
		st.held = 0
	}

	phase := q.maxPhase() + 1
	st.desc.Store(makeDesc(phase, true, false, 0))
	q.help(tid, phase)
	q.helpFinishDeq(tid)

	first := descNode(st.desc.Load())
	if first == 0 {
		return 0, false // empty at linearization
	}
	// We claimed sentinel first, so its successor link is final and names
	// our node. Neither can be retired yet: first waits for our release
	// below, and our node for the one our next dequeue makes.
	node = pack.Handle(a.LoadWord(first, nextWord))
	q.release(tid, first)
	st.held = node
	return node, true
}

// release counts one of h's two releases and retires h on the second; the
// claimer's release comes after the head has moved past h.
func (q *Queue) release(tid int, h mem.Handle) {
	if !q.smr.Arena().CASWord(h, releaseWord, 0, 1) {
		q.smr.Retire(tid, h)
	}
}

// help completes every pending operation whose phase is at most phase
// (the Kogan–Petrank helping discipline that yields wait-freedom).
func (q *Queue) help(tid int, phase uint64) {
	for i := 0; i < q.maxThreads; i++ {
		d := q.state[i].desc.Load()
		if descPending(d) && descPhase(d) <= phase {
			if descEnqueue(d) {
				q.helpEnq(tid, i, descPhase(d))
			} else {
				q.helpDeq(tid, i, descPhase(d))
			}
		}
	}
}

func (q *Queue) helpEnq(tid, i int, phase uint64) {
	a := q.smr.Arena()
	for q.isStillPending(i, phase) {
		last := pack.Handle(q.smr.GetProtected(tid, &q.tail, hpLast, 0))
		next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
		if last != q.tail.Load() {
			continue
		}
		if next == 0 {
			if q.isStillPending(i, phase) {
				node := descNode(q.state[i].desc.Load())
				if node != 0 && a.CASWord(last, nextWord, 0, node) {
					q.helpFinishEnq(tid)
					return
				}
			}
		} else {
			q.helpFinishEnq(tid) // tail is lagging; advance it first
		}
	}
}

func (q *Queue) helpFinishEnq(tid int) {
	a := q.smr.Arena()
	last := pack.Handle(q.smr.GetProtected(tid, &q.tail, hpLast, 0))
	next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
	if last != q.tail.Load() || next == 0 {
		return
	}
	enqTid := int(a.LoadWord(next, enqTidWord)) - 1
	if enqTid < 0 {
		return
	}
	curDesc := q.state[enqTid].desc.Load()
	if last == q.tail.Load() && descNode(curDesc) == next {
		// Keep node == next in the completed descriptor so stragglers can
		// still advance the tail below.
		q.state[enqTid].desc.CompareAndSwap(curDesc,
			makeDesc(descPhase(curDesc), false, true, next))
		q.tail.CompareAndSwap(last, next)
	}
}

func (q *Queue) helpDeq(tid, i int, phase uint64) {
	a := q.smr.Arena()
	for q.isStillPending(i, phase) {
		first := pack.Handle(q.smr.GetProtected(tid, &q.head, hpFirst, 0))
		last := q.tail.Load()
		next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
		if first != q.head.Load() {
			continue
		}
		if first == pack.Handle(last) {
			if next == 0 { // queue empty: complete with a nil node
				curDesc := q.state[i].desc.Load()
				if pack.Handle(last) == pack.Handle(q.tail.Load()) && q.isStillPending(i, phase) {
					q.state[i].desc.CompareAndSwap(curDesc,
						makeDesc(descPhase(curDesc), false, false, 0))
				}
			} else {
				q.helpFinishEnq(tid) // tail lagging behind a concurrent enqueue
			}
			continue
		}
		if next == 0 {
			continue // stale tail snapshot; re-read a consistent window
		}
		curDesc := q.state[i].desc.Load()
		node := descNode(curDesc)
		if !q.isStillPending(i, phase) {
			break
		}
		if first == pack.Handle(q.head.Load()) && node != first {
			// Record the sentinel this dequeue is about to claim.
			if !q.state[i].desc.CompareAndSwap(curDesc,
				makeDesc(descPhase(curDesc), true, false, first)) {
				continue
			}
		}
		a.CASWord(first, deqTidWord, 0, uint64(i)+1)
		q.helpFinishDeq(tid)
	}
}

func (q *Queue) helpFinishDeq(tid int) {
	a := q.smr.Arena()
	first := pack.Handle(q.smr.GetProtected(tid, &q.head, hpFirst, 0))
	next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
	claim := a.LoadWord(first, deqTidWord)
	if claim == 0 {
		return
	}
	deqTid := int(claim) - 1
	curDesc := q.state[deqTid].desc.Load()
	if first == pack.Handle(q.head.Load()) && next != 0 {
		q.state[deqTid].desc.CompareAndSwap(curDesc,
			makeDesc(descPhase(curDesc), false, false, descNode(curDesc)))
		q.head.CompareAndSwap(first, next)
	}
}

// Len counts queued nodes; meaningful only quiescently.
func (q *Queue) Len() int {
	a := q.smr.Arena()
	n := 0
	h := pack.Handle(q.head.Load())
	for h != 0 {
		next := pack.Handle(a.LoadWord(h, nextWord))
		if next != 0 {
			n++ // every node past the sentinel is queued
		}
		h = next
	}
	return n
}
