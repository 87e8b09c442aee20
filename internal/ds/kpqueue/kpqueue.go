// Package kpqueue implements the Kogan–Petrank wait-free queue (PPoPP 2011)
// over the reclamation interface, with the fast-path/slow-path method of
// Kogan and Petrank's "A methodology for creating fast wait-free data
// structures" (PPoPP 2012). The paper highlights this structure: the
// original relies on a garbage collector, and WFE makes it, for the first
// time, fully wait-free including reclamation (Figure 5a/5b).
//
// The queue is a Michael–Scott list. Dequeues claim the current sentinel
// by CASing its deqTid word; the claimed sentinel's successor becomes the
// new sentinel, and Dequeue returns it to the caller, which keeps the
// value beside the node.
//
// Fast path. An operation first makes up to fastAttempts bounded
// Michael–Scott attempts. A fast enqueue CASes the tail node's null link
// to its node and then swings the tail (best effort); its node keeps
// enqTid 0, which marks a node appended without a descriptor. A fast
// dequeue claims the sentinel with fastClaim | tid+1 in its deqTid word,
// which marks a claim without a descriptor, and then swings the head. An
// attempt fails only when a concurrent operation moved the tail or head,
// or linked or claimed first.
//
// Slow path. After fastAttempts failed attempts the operation runs the
// 2011 phase-based protocol unchanged: it publishes an operation
// descriptor, computes a phase higher than every phase it can see, and
// helps every pending operation with a lower or equal phase before its
// own completes. helpFinishEnq and helpFinishDeq complete a descriptor
// when its node reaches the tail's link or its claim sits on the head;
// a descriptor-less node or claim needs only the tail or head moved past
// it.
//
// Helping. Before its own work every operation, fast or slow, runs
// helpOne: it reads the descriptor under a per-thread round-robin cursor
// and, when that descriptor is pending, helps every pending operation of
// its phase or lower. This is the 2012 helping rule.
//
// Wait-freedom. A fast attempt is a bounded number of steps: one
// protected read, two loads and at most two CASes, or one bounded
// helpFinishEnq or helpFinishDeq, so the fast path ends within
// fastAttempts attempts. A slow operation S posted by thread i is helped
// to completion by every other thread j within maxThreads of j's own
// operations, when j's cursor reaches i; and a thread that takes the slow
// path helps S first when S's phase is lower. So at most maxThreads-1
// threads each complete at most maxThreads+1 operations while S is
// pending, and each of S's helping-loop iterations fails only when one of
// those operations (or a lower-phase slow one) succeeded. S's loop
// therefore ends within O(maxThreads²) iterations whatever the schedule,
// and every operation is wait-free, reclamation included, when the
// scheme's protect is (WFE).
//
// Reclamation. A node is retired on the second of two releases: by the
// dequeuer that claimed it as sentinel, right after that dequeue, and by
// the dequeuer it was returned to, at that thread's next dequeue. The
// constructor's sentinel starts with one release counted.
//
// The caller passes the reclamation scheme to every operation. A Domain's
// scheme can change between operations (wfe.Domain.Switch swaps only with
// no guard held), never during one.
//
// The per-thread descriptor — the paper's {phase, pending, enqueue, node} —
// packs into one word with the node handle in the low bits, which doubles
// as the hazard target for the HP scheme.
package kpqueue

import (
	"sync/atomic"

	"wfe/internal/failpoint"
	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

const (
	nextWord    = 0 // successor link
	deqTidWord  = 1 // claiming dequeuer + 1, or fastClaim | dequeuer + 1; 0 = unclaimed
	enqTidWord  = 2 // slow-path enqueuer + 1 (set before publication); 0 = fast-path node
	releaseWord = 3 // 1 once one of the node's two releases happened

	// fastClaim marks a deqTid claim a fast-path dequeue made: no
	// descriptor stands behind it.
	fastClaim = 1 << 32

	// fastAttempts bounds the Michael–Scott attempts an operation makes
	// before it posts a descriptor.
	fastAttempts = 3

	// descriptor layout: | phase (36) | enqueue (1) | pending (1) | node (26) |
	descPendingBit = 1 << pack.PtrBits
	descEnqueueBit = 1 << (pack.PtrBits + 1)
	descPhaseShift = pack.PtrBits + 2
)

// fpFast fires at the start of every operation's fast path: an injected
// error makes the operation skip it and post a descriptor at once, so
// tests can keep the slow path covered. Disarmed it costs one atomic load.
var fpFast = failpoint.New("kpqueue-fast")

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

// stateSlot is one thread's descriptor and its owner-only bookkeeping.
// Every other tid's helpOne reads desc, while the owner writes cursor on
// every operation and held on every dequeue, so the two halves sit on
// separate cache lines (TestLayout).
type stateSlot struct {
	desc   atomic.Uint64
	_      [56]byte
	held   mem.Handle // node last returned by Dequeue; owner-only
	cursor int        // descriptor helpOne reads next; owner-only
	_      [48]byte
}

// Queue is a wait-free multi-producer multi-consumer FIFO queue. Its
// read-mostly fields fill the first cache line and head and tail, which
// every operation CASes, the second (TestLayout).
type Queue struct {
	a          *mem.Arena
	maxThreads int
	state      []stateSlot
	_          [24]byte
	head       atomic.Uint64 // sentinel handle
	tail       atomic.Uint64
	_          [48]byte
}

// New creates an empty queue for up to maxThreads registered threads
// around the sentinel block s, which the caller allocated from a.
func New(a *mem.Arena, maxThreads int, s mem.Handle) *Queue {
	q := &Queue{a: a, maxThreads: maxThreads, state: make([]stateSlot, maxThreads)}
	a.ZeroWords(s)
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

// helpOne reads the descriptor under tid's round-robin cursor, advances
// the cursor, and helps that operation (with every pending one of its
// phase or lower) if it is pending. Every operation calls it first, so a
// posted descriptor is completed within maxThreads operations of each
// other thread, however often their fast paths win.
func (q *Queue) helpOne(s reclaim.Scheme, tid int) {
	st := &q.state[tid]
	i := st.cursor
	if st.cursor++; st.cursor == q.maxThreads {
		st.cursor = 0
	}
	if d := q.state[i].desc.Load(); descPending(d) {
		q.help(s, tid, descPhase(d))
	}
}

// EnqueueNode appends node, a block tid allocated from the queue's arena
// and has not published, using scheme s for protection and retirement.
// Taking the node from the caller keeps the allocation ahead of the
// protected section, so an allocation that stalls on an exhausted arena
// holds no reservation.
func (q *Queue) EnqueueNode(s reclaim.Scheme, tid int, node mem.Handle) {
	s.Begin(tid)
	defer s.Clear(tid)
	a := q.a
	a.ZeroWords(node) // enqTid 0: appended by the fast path
	q.helpOne(s, tid)

	if fpFast.Eval(tid) == nil {
		for range fastAttempts {
			last := pack.Handle(s.GetProtected(tid, &q.tail, hpLast, 0))
			// next is only compared with 0 here; helpFinishEnq protects
			// it before reading it.
			next := a.LoadWord(last, nextWord)
			if last != q.tail.Load() {
				continue
			}
			if next != 0 {
				q.helpFinishEnq(s, tid)
				continue
			}
			if a.CASWord(last, nextWord, 0, node) {
				q.tail.CompareAndSwap(last, node)
				return
			}
		}
	}

	a.StoreWord(node, enqTidWord, uint64(tid)+1)
	phase := q.maxPhase() + 1
	q.state[tid].desc.Store(makeDesc(phase, true, true, node))
	q.help(s, tid, phase)
	q.helpFinishEnq(s, tid)
}

// Dequeue removes the oldest node and returns it, using scheme s for
// protection and retirement; ok is false when the queue is empty. The
// node stays allocated until tid's next Dequeue, which releases it.
func (q *Queue) Dequeue(s reclaim.Scheme, tid int) (node mem.Handle, ok bool) {
	s.Begin(tid)
	defer s.Clear(tid)
	a := q.a
	st := &q.state[tid]
	if st.held != 0 {
		q.release(s, tid, st.held)
		st.held = 0
	}
	q.helpOne(s, tid)

	if fpFast.Eval(tid) == nil {
		for range fastAttempts {
			first := pack.Handle(s.GetProtected(tid, &q.head, hpFirst, 0))
			last := pack.Handle(q.tail.Load())
			// next is not dereferenced: once first is claimed, next is
			// the sentinel, which the release protocol keeps allocated.
			next := pack.Handle(a.LoadWord(first, nextWord))
			if first != q.head.Load() {
				continue
			}
			if first == last {
				if next == 0 {
					return 0, false // empty when next was read, as in Michael–Scott
				}
				q.helpFinishEnq(s, tid) // tail lagging behind an enqueue
				continue
			}
			if next == 0 {
				continue // stale tail snapshot
			}
			if a.CASWord(first, deqTidWord, 0, fastClaim|uint64(tid)+1) {
				q.head.CompareAndSwap(first, next)
				q.release(s, tid, first)
				st.held = next
				return next, true
			}
			q.helpFinishDeq(s, tid)
		}
	}

	phase := q.maxPhase() + 1
	st.desc.Store(makeDesc(phase, true, false, 0))
	q.help(s, tid, phase)
	q.helpFinishDeq(s, tid)

	first := descNode(st.desc.Load())
	if first == 0 {
		return 0, false // empty at linearization
	}
	// We claimed sentinel first, so its successor link is final and names
	// our node. Neither can be retired yet: first waits for our release
	// below, and our node for the one our next dequeue makes.
	node = pack.Handle(a.LoadWord(first, nextWord))
	q.release(s, tid, first)
	st.held = node
	return node, true
}

// release counts one of h's two releases and retires h on the second; the
// claimer's release comes after the head has moved past h.
func (q *Queue) release(s reclaim.Scheme, tid int, h mem.Handle) {
	if !q.a.CASWord(h, releaseWord, 0, 1) {
		s.Retire(tid, h)
	}
}

// help completes every pending operation whose phase is at most phase
// (the Kogan–Petrank helping discipline that yields wait-freedom).
func (q *Queue) help(s reclaim.Scheme, tid int, phase uint64) {
	for i := 0; i < q.maxThreads; i++ {
		d := q.state[i].desc.Load()
		if descPending(d) && descPhase(d) <= phase {
			if descEnqueue(d) {
				q.helpEnq(s, tid, i, descPhase(d))
			} else {
				q.helpDeq(s, tid, i, descPhase(d))
			}
		}
	}
}

func (q *Queue) helpEnq(s reclaim.Scheme, tid, i int, phase uint64) {
	a := q.a
	for q.isStillPending(i, phase) {
		last := pack.Handle(s.GetProtected(tid, &q.tail, hpLast, 0))
		next := pack.Handle(s.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
		if last != q.tail.Load() {
			continue
		}
		if next == 0 {
			if q.isStillPending(i, phase) {
				node := descNode(q.state[i].desc.Load())
				if node != 0 && a.CASWord(last, nextWord, 0, node) {
					q.helpFinishEnq(s, tid)
					return
				}
			}
		} else {
			q.helpFinishEnq(s, tid) // tail is lagging; advance it first
		}
	}
}

// helpFinishEnq moves the tail past the node linked behind it, first
// completing that node's descriptor if a slow-path enqueue linked it.
func (q *Queue) helpFinishEnq(s reclaim.Scheme, tid int) {
	a := q.a
	last := pack.Handle(s.GetProtected(tid, &q.tail, hpLast, 0))
	next := pack.Handle(s.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
	if last != q.tail.Load() || next == 0 {
		return
	}
	enqTid := int(a.LoadWord(next, enqTidWord)) - 1
	if enqTid < 0 {
		// A fast-path node has no descriptor. Leaving the tail behind it
		// would spin every helper until its enqueuer swung the tail.
		q.tail.CompareAndSwap(last, next)
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

func (q *Queue) helpDeq(s reclaim.Scheme, tid, i int, phase uint64) {
	a := q.a
	for q.isStillPending(i, phase) {
		first := pack.Handle(s.GetProtected(tid, &q.head, hpFirst, 0))
		last := q.tail.Load()
		next := pack.Handle(s.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
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
				q.helpFinishEnq(s, tid) // tail lagging behind a concurrent enqueue
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
		q.helpFinishDeq(s, tid)
	}
}

// helpFinishDeq moves the head past a claimed sentinel, first completing
// the claimer's descriptor if a slow-path dequeue claimed it.
func (q *Queue) helpFinishDeq(s reclaim.Scheme, tid int) {
	a := q.a
	first := pack.Handle(s.GetProtected(tid, &q.head, hpFirst, 0))
	next := pack.Handle(s.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
	claim := a.LoadWord(first, deqTidWord)
	if claim == 0 || next == 0 {
		return
	}
	if claim&fastClaim != 0 {
		q.head.CompareAndSwap(first, next) // a fast claim has no descriptor
		return
	}
	deqTid := int(claim) - 1
	curDesc := q.state[deqTid].desc.Load()
	if first == pack.Handle(q.head.Load()) {
		q.state[deqTid].desc.CompareAndSwap(curDesc,
			makeDesc(descPhase(curDesc), false, false, descNode(curDesc)))
		q.head.CompareAndSwap(first, next)
	}
}

// Len counts queued nodes; meaningful only quiescently.
func (q *Queue) Len() int {
	a := q.a
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
