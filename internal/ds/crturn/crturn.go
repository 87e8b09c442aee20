// Package crturn implements the CRTurn wait-free queue of Ramalhete and
// Correia (PPoPP 2017 poster, "A Wait-Free Queue with Wait-Free Memory
// Reclamation"), the second wait-free structure in the paper's evaluation
// (Figure 5c/5d).
//
// The published mechanism: enqueuers announce their node in a per-thread
// array and helpers link announcements at the tail in "turn" order (round
// robin starting after the last inserted node's enqueuer), which bounds any
// enqueue by one full turn. Dequeuers announce open requests; helpers claim
// the current head's successor for the longest-waiting open request (turn
// order starting after the requester that received the current sentinel),
// hand the node over, and advance the head. The handed node becomes the new
// sentinel, and Dequeue returns it to its receiver, which keeps the value
// beside the node; the receiver retires the node at its next successful
// dequeue, which is the queue's wait-free reclamation story.
//
// Reconstruction notes (the authors' code is not available offline): this
// implementation keeps the published turn mechanics but makes the hand-off
// protocol explicitly ABA-proof with per-thread request sequence numbers.
// A dequeue request is (thread, seq); the claim CAS stores both in the
// node's claim word, and the hand-off CAS into deqhelp[t] is guarded by the
// sequence number, so arbitrarily stale helpers can neither hand a consumed
// node to a new request nor overwrite a newer hand-off. A request that
// observes an empty queue closes itself (gives up); a hand-off that still
// lands for a closed request is absorbed by the thread's next dequeue,
// which is linearizable because the claimed node was the oldest element and
// no further node can be claimed for that thread while its request is
// closed. Retirement: the receiver of a handed node retires it at its next
// dequeue, after making sure the head has moved past it; the initial
// sentinel, which no thread owns, is retired by whoever wins the head CAS
// that unlinks it.
package crturn

import (
	"fmt"
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

const (
	nextWord   = 0 // successor link
	claimWord  = 1 // packed {seq:38 | receiver+1:8}; 0 = unclaimed
	enqTidWord = 2 // enqueuer + 1 (set before publication)

	// reservation indices
	hpHead = 0
	hpNext = 1
	hpTail = 0 // enqueue reuses index 0 for the tail
)

// claim word: seq<<8 | tid+1 (tid < 255).
func makeClaim(tid int, seq uint64) uint64 { return seq<<8 | uint64(tid) + 1 }
func claimTid(c uint64) int                { return int(c&0xFF) - 1 }
func claimSeq(c uint64) uint64             { return c >> 8 }

// deqself word: seq<<1 | open.
func makeSelf(seq uint64, open bool) uint64 {
	s := seq << 1
	if open {
		s |= 1
	}
	return s
}
func selfSeq(s uint64) uint64 { return s >> 1 }
func selfOpen(s uint64) bool  { return s&1 != 0 }

// deqhelp word: seq<<26 | handle.
func makeHelp(seq uint64, h mem.Handle) uint64 { return seq<<pack.HandleBits | h }
func helpSeq(v uint64) uint64                  { return v >> pack.HandleBits }
func helpNode(v uint64) mem.Handle             { return v & pack.HandleMask }

type perThread struct {
	deqself atomic.Uint64 // request state; owner stores, helpers read
	deqhelp atomic.Uint64 // hand-off slot; helpers CAS, owner reads
	enq     atomic.Uint64 // announced enqueue node; owner stores, helpers clear
	_       [40]byte
}

// ownerState is owner-thread-local dequeue bookkeeping.
type ownerState struct {
	reqSeq  uint64     // last issued request sequence
	lastSeq uint64     // sequence of the last consumed hand-off
	prev    mem.Handle // last consumed node, to retire at the next dequeue
	_       [40]byte
}

// Queue is a wait-free MPMC FIFO queue.
type Queue struct {
	smr        reclaim.Scheme
	maxThreads int
	head       atomic.Uint64
	tail       atomic.Uint64
	threads    []perThread
	owners     []ownerState
}

// New creates an empty queue for up to maxThreads (< 255) registered
// threads around the sentinel block s, which the caller allocated from
// smr's arena.
func New(smr reclaim.Scheme, maxThreads int, s mem.Handle) *Queue {
	if maxThreads >= 255 {
		panic("crturn: claim word holds at most 254 thread ids")
	}
	q := &Queue{
		smr:        smr,
		maxThreads: maxThreads,
		threads:    make([]perThread, maxThreads),
		owners:     make([]ownerState, maxThreads),
	}
	a := smr.Arena()
	a.StoreWord(s, nextWord, 0)
	a.StoreWord(s, claimWord, 0)
	a.StoreWord(s, enqTidWord, 0)
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// debugBound panics in debug arenas when a nominally bounded helping loop
// exceeds its wait-freedom budget; release arenas keep looping.
func (q *Queue) debugBound(round int, op string) {
	if q.smr.Arena().Debug() && round > 16*q.maxThreads+64 {
		panic(fmt.Sprintf("crturn: %s exceeded its wait-free round bound", op))
	}
}

// EnqueueNode appends node, a block tid allocated and has not published;
// allocating ahead of the protected section means a stalled allocation
// holds no reservation. The announcement/turn protocol guarantees the node
// is linked within one full turn even if this thread does all the work
// itself.
func (q *Queue) EnqueueNode(tid int, node mem.Handle) {
	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	a := q.smr.Arena()

	a.StoreWord(node, nextWord, 0)
	a.StoreWord(node, claimWord, 0)
	a.StoreWord(node, enqTidWord, uint64(tid)+1)
	q.threads[tid].enq.Store(node)

	for round := 0; q.threads[tid].enq.Load() != 0; round++ {
		q.debugBound(round, "enqueue")
		ltail := pack.Handle(q.smr.GetProtected(tid, &q.tail, hpTail, 0))
		// Clear the tail node's announcement before anything may advance
		// the tail past it: helpers scanning announcements after reading
		// the tail then cannot re-link an already inserted node.
		if et := a.LoadWord(ltail, enqTidWord); et != 0 {
			if q.threads[et-1].enq.Load() == ltail {
				q.threads[et-1].enq.CompareAndSwap(ltail, 0)
			}
		}
		lnext := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(ltail, nextWord), hpNext, ltail))
		if ltail != pack.Handle(q.tail.Load()) {
			continue
		}
		if lnext != 0 { // tail lagging: advance and retry
			q.tail.CompareAndSwap(ltail, lnext)
			continue
		}
		// Link the next announcement in turn order, starting after the
		// enqueuer of the current tail node.
		turn := int(a.LoadWord(ltail, enqTidWord)) // et+1 form; 0 when none
		for j := 1; j <= q.maxThreads; j++ {
			t2 := (turn - 1 + j + q.maxThreads) % q.maxThreads
			cand := q.threads[t2].enq.Load()
			if cand != 0 && cand != ltail {
				a.CASWord(ltail, nextWord, 0, cand)
				break
			}
		}
		if nn := pack.Handle(a.LoadWord(ltail, nextWord)); nn != 0 {
			q.tail.CompareAndSwap(ltail, nn)
		}
	}
}

// consume takes a hand-off (seq, node), returns its node, and retires the
// node consumed before it once the head is safely past that older node.
func (q *Queue) consume(tid int, hv uint64) mem.Handle {
	node := helpNode(hv)
	o := &q.owners[tid]
	if o.prev != 0 {
		q.retireSentinel(tid, o.prev)
	}
	o.prev = node
	o.lastSeq = helpSeq(hv)
	return node
}

// retireSentinel retires a node this thread received earlier. The node left
// the queue when its successor was handed over, but the head pointer itself
// may still lag on it; push the head past it first so no new reader can
// pick a retired block up from the head.
func (q *Queue) retireSentinel(tid int, h mem.Handle) {
	a := q.smr.Arena()
	if pack.Handle(q.head.Load()) == h {
		if nx := pack.Handle(a.LoadWord(h, nextWord)); nx != 0 {
			q.head.CompareAndSwap(h, nx)
		}
	}
	q.smr.Retire(tid, h)
}

// Dequeue removes the oldest node and returns it; ok is false when the
// queue is empty. The node stays allocated until tid's next successful
// Dequeue, which retires it.
func (q *Queue) Dequeue(tid int) (node mem.Handle, ok bool) {
	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	a := q.smr.Arena()
	o := &q.owners[tid]
	me := &q.threads[tid]

	// Absorb a hand-off that landed after a previous dequeue gave up: it
	// holds the then-oldest element and nothing newer can have been claimed
	// for this thread while its request was closed.
	if hv := me.deqhelp.Load(); helpSeq(hv) > o.lastSeq {
		return q.consume(tid, hv), true
	}

	// Open a new request.
	o.reqSeq++
	myseq := o.reqSeq
	me.deqself.Store(makeSelf(myseq, true))

	for round := 0; ; round++ {
		q.debugBound(round, "dequeue")
		if hv := me.deqhelp.Load(); helpSeq(hv) == myseq {
			me.deqself.Store(makeSelf(myseq, false))
			return q.consume(tid, hv), true
		}
		lheadV := q.smr.GetProtected(tid, &q.head, hpHead, 0)
		lhead := pack.Handle(lheadV)
		lnext := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(lhead, nextWord), hpNext, lhead))
		if lhead != pack.Handle(q.head.Load()) {
			continue
		}
		if lnext == 0 { // empty: close the request (give up)
			me.deqself.Store(makeSelf(myseq, false))
			if hv := me.deqhelp.Load(); helpSeq(hv) == myseq {
				// Handed concurrently with the give-up: it is ours.
				return q.consume(tid, hv), true
			}
			// Re-validate emptiness *after* closing. A claim for this
			// request can only live on the current head's successor
			// (claims bind to head.next and the head cannot advance past
			// an unhanded claim), so observing an empty queue now proves
			// no claim for this request exists or can ever land — late
			// claim CASes target a node that has since been claimed by
			// someone else and fail on its non-zero claim word.
			lh2 := pack.Handle(q.smr.GetProtected(tid, &q.head, hpHead, 0))
			ln2 := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(lh2, nextWord), hpNext, lh2))
			if ln2 == 0 && lh2 == pack.Handle(q.head.Load()) {
				if hv := me.deqhelp.Load(); helpSeq(hv) == myseq {
					return q.consume(tid, hv), true
				}
				return 0, false
			}
			// Not empty after all; re-open and keep helping.
			me.deqself.Store(makeSelf(myseq, true))
			continue
		}
		q.helpHand(tid, lhead, lnext)
	}
}

// helpHand performs one helping step on a non-empty queue snapshot: claim
// the head's successor for the open request whose turn it is, hand it over
// (sequence-guarded), and advance the head.
func (q *Queue) helpHand(tid int, lhead, lnext mem.Handle) {
	a := q.smr.Arena()
	cw := a.LoadWord(lnext, claimWord)
	if cw == 0 {
		// Whose turn? Round robin after the receiver of the current
		// sentinel.
		turn := claimTid(a.LoadWord(lhead, claimWord)) // -1 for the initial sentinel
		for j := 1; j <= q.maxThreads; j++ {
			t2 := (turn + j + q.maxThreads) % q.maxThreads
			ds := q.threads[t2].deqself.Load()
			if !selfOpen(ds) {
				continue
			}
			seq := selfSeq(ds)
			if helpSeq(q.threads[t2].deqhelp.Load()) >= seq {
				continue // already satisfied; the owner just hasn't noticed
			}
			a.CASWord(lnext, claimWord, 0, makeClaim(t2, seq))
			break
		}
		cw = a.LoadWord(lnext, claimWord)
	}
	if cw != 0 {
		t2, seq := claimTid(cw), claimSeq(cw)
		hs := &q.threads[t2].deqhelp
		// The hand-off must be complete before the head may advance (the
		// give-up protocol relies on "head cannot pass an unhanded claim").
		// The sequence guard makes stale hand-offs harmless: they can only
		// lose against (never overwrite) a newer hand-off.
		for {
			cur := hs.Load()
			if helpSeq(cur) >= seq || hs.CompareAndSwap(cur, makeHelp(seq, lnext)) {
				break
			}
		}
		if q.head.CompareAndSwap(lhead, lnext) {
			// The initial sentinel has no receiver to retire it.
			if claimTid(a.LoadWord(lhead, claimWord)) == -1 {
				q.smr.Retire(tid, lhead)
			}
		}
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
			n++
		}
		h = next
	}
	return n
}
