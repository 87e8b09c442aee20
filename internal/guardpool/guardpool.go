// Package guardpool is the guard runtime's tid allocator: a lock-free
// freelist handing out the dense thread ids (0..n-1) that every reclamation
// scheme's per-thread state is indexed by, plus a parking layer for callers
// that would rather block than fail when all ids are held.
//
// The freelist is a Treiber stack of slot indices threaded through a
// cache-line-padded next array. The head packs {ABA counter, top index}
// into one uint64 so a single CAS both pops the top and invalidates stale
// heads — the classic versioned-head construction, the same trick the
// paper's wide-CAS emulation (internal/pack) uses for {era,tag} pairs.
// Acquire and Release are therefore lock-free: no mutex, no syscall, and
// under contention someone always makes progress.
//
// Parking (Acquire) is built on top of the lock-free core with DIRECT
// handoff: when waiters are registered, Release sends the freed id into a
// channel reserved for them instead of pushing it back on the freelist,
// and TryAcquire refuses to poach from that channel while anyone waits.
// Without the reservation a parked waiter can starve forever — the
// releasing goroutine's own next acquire (or any barger's) wins the
// freelist CAS long before the scheduler runs the woken waiter, which on
// a busy system happens every single time. Because the pool cannot know
// about ids its caller is holding elsewhere (the Domain layer caches idle
// guards in a sync.Pool), a parked waiter also wakes on an escalating
// backoff timer and re-polls through the caller-supplied spare function —
// the safety net that bounds the cache-vs-waiter sleep race to
// milliseconds instead of forever.
package guardpool

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"wfe/internal/failpoint"
	"wfe/internal/trace"
)

// fpHandoff fires on Release's direct-handoff path, before the freed id
// is offered to a parked waiter. A sleep trigger holds the releaser
// inside the handoff window — the schedule where gate re-checks and
// waiter wakeups race — for the chaos harness; injected errors are
// ignored (a release must always complete).
var fpHandoff = failpoint.New("guardpool-handoff")

// emptyIdx is the freelist terminator: no next slot / empty pool.
const emptyIdx = ^uint32(0)

// slot is one freelist cell. Only the next index lives here; the padding
// keeps neighbouring tids' push/pop traffic off each other's cache lines,
// matching the per-thread state layout of internal/mem and internal/core.
type slot struct {
	next atomic.Uint32
	_    [60]byte
}

// Pool is a lock-free pool of the dense ids 0..Cap()-1. The zero value is
// not usable; construct with New.
type Pool struct {
	// head packs {ABA counter : 32, top slot index : 32}. Every successful
	// CAS bumps the counter, so a pop that read a stale head-next pair can
	// never install it over a recycled top slot.
	head atomic.Uint64
	_    [56]byte

	slots []slot

	// waiters counts Acquire callers that are registered to park. While it
	// is non-zero, Release hands freed ids into hand — reserved for parked
	// waiters, off-limits to TryAcquire — instead of the freelist; the
	// uncontended release path stays one load past the CAS.
	waiters atomic.Int32
	hand    chan int

	acquires atomic.Uint64
	parks    atomic.Uint64

	// held counts ids checked out of the pool — not on the freelist and
	// not parked in the handoff channel. Unlike Free's freelist walk it is
	// exact at the one moment exactness matters: every successful pop or
	// handoff receive increments it BEFORE the acquirer's post-acquire gate
	// re-check, and Release decrements it only AFTER the id is visibly back,
	// so once a pauser (gate stored) reads held == 0, no acquirer can be
	// holding an id it will use — any later gate re-check sees the gate and
	// backs out. Transient over-counts (an acquirer about to back out) only
	// make the pauser wait longer, never proceed early.
	held atomic.Int64

	// gate, when non-nil, is the pause epoch: new acquisitions wait on the
	// channel it points to until Resume closes it. pauseMu serializes
	// pausers (held from Pause to Resume) so overlapping pause epochs
	// cannot interleave their gate swaps. pauseSeq increments on every
	// Pause (to odd) and every Resume (to even): an acquirer that reads it
	// equal and even around a failed acquisition knows no pause epoch
	// overlapped the attempt — the failure was genuine exhaustion, not the
	// gate.
	gate     atomic.Pointer[chan struct{}]
	pauseMu  sync.Mutex
	pauseSeq atomic.Uint64

	// tracer, when set before use, receives guard lifecycle events
	// (acquire, park, cancel). Nil costs one branch per event site.
	tracer *trace.Tracer
}

// SetTracer installs the lifecycle event tracer. Call before the pool is
// shared between goroutines (the field is written once, read racily
// thereafter by design: the tracer pointer never changes after setup).
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// New creates a pool holding the ids 0..n-1, popping in ascending order
// from a full pool.
func New(n int) *Pool {
	if n < 0 {
		n = 0
	}
	p := &Pool{
		slots: make([]slot, n),
		hand:  make(chan int, n+1), // never blocks: at most n ids exist
	}
	for i := 0; i < n-1; i++ {
		p.slots[i].next.Store(uint32(i + 1))
	}
	if n > 0 {
		p.slots[n-1].next.Store(emptyIdx)
		p.head.Store(pack(0, 0))
	} else {
		p.head.Store(pack(0, emptyIdx))
	}
	return p
}

func pack(aba uint64, idx uint32) uint64 { return aba<<32 | uint64(idx) }

// Cap returns the number of ids the pool manages.
func (p *Pool) Cap() int { return len(p.slots) }

// pop is the freelist fast path: one versioned-head CAS, no mutex.
func (p *Pool) pop() (int, bool) {
	for {
		h := p.head.Load()
		idx := uint32(h)
		if idx == emptyIdx {
			return 0, false
		}
		next := p.slots[idx].next.Load()
		if p.head.CompareAndSwap(h, pack(h>>32+1, next)) {
			return int(idx), true
		}
	}
}

// Pause gates new acquisitions: until Resume, TryAcquire reports no free
// ids and Acquire parks on the pause epoch instead of the freelist. Ids
// already held stay held — Pause does not revoke anything; the pauser
// waits for them to drain back (Held reaching 0) itself. Releases during
// a pause always go to the freelist, never to a parked waiter — a handoff
// that slips across the pause boundary is backed out by the receiver's
// gate re-check — so the freed set only grows while paused. Concurrent
// pausers serialize: the second Pause blocks until the first Resume.
func (p *Pool) Pause() {
	p.pauseMu.Lock()
	// The sequence increment precedes the gate store: any acquirer whose
	// failed attempt raced this gate sees the sequence change and knows a
	// pause overlapped it (see Pool.pauseSeq).
	p.pauseSeq.Add(1)
	ch := make(chan struct{})
	p.gate.Store(&ch)
}

// Resume releases the pause epoch, waking every gated acquirer.
func (p *Pool) Resume() {
	ch := p.gate.Swap(nil)
	close(*ch)
	p.pauseSeq.Add(1)
	p.pauseMu.Unlock()
}

// Paused reports whether a pause epoch is in effect.
func (p *Pool) Paused() bool { return p.gate.Load() != nil }

// PauseSeq returns the pause sequence number: odd while a pause epoch is
// in effect, even otherwise, incremented on every Pause and Resume. A
// caller that reads it even-and-unchanged around a failed TryAcquire has
// proof no pause overlapped the attempt — the pool was genuinely
// exhausted, not gated.
func (p *Pool) PauseSeq() uint64 { return p.pauseSeq.Load() }

// AwaitResume parks the caller until the current pause epoch (if any)
// ends. It acquires nothing; callers loop back to their acquisition path
// after it returns.
func (p *Pool) AwaitResume() {
	if g := p.gate.Load(); g != nil {
		<-*g
	}
}

// Held reports how many ids are checked out of the pool. Unlike Free it
// is exact for quiescence detection under a pause epoch: once a pauser
// reads 0 after storing the gate, no acquirer holds an id it will keep —
// at most one is in the instant between a pop and its gate re-check, and
// that re-check either sees the gate (the id goes straight back to the
// freelist, untouched) or post-dates Resume. Nothing acquired before the
// read can still be live, and nothing acquired after it can act before
// the pause ends.
func (p *Pool) Held() int { return int(p.held.Load()) }

// obtained runs the post-acquire commit protocol on an id just popped or
// received: count it held, then re-check the gate. The increment-then-
// recheck order is what makes a pauser's Held()==0 read exact — if the
// re-check saw no gate, the increment is ordered before the pauser's
// read; if it saw one, the id goes straight back to the freelist (during
// a pause the freelist is the only legal destination) and the caller
// treats the attempt as gated.
func (p *Pool) obtained(tid int) bool {
	p.held.Add(1)
	if p.Paused() {
		p.pushFree(tid)
		p.held.Add(-1)
		return false
	}
	return true
}

// TryAcquire pops a free id, reporting false when none is free. Ids that
// Release handed to parked waiters are reserved: TryAcquire only drains
// the handoff channel when nobody is registered to park (a waiter that
// left without its id — context cancelled, or satisfied from the caller's
// spare supply — strands it there until someone claims it). During a
// pause epoch it always reports false, even when the pop raced the gate
// going up — the id is returned and the attempt reported gated.
func (p *Pool) TryAcquire() (int, bool) { return p.tryAcquire(0) }

// TryAcquireBatch is TryAcquire on behalf of a batch entry point
// (MultiGet, TryPushAll, ...): identical semantics, but the acquire
// lifecycle event carries the batch marker in its B payload, so a trace
// can attribute pool traffic to batch leases — with one lease per burst,
// batch-marked acquires should stay rare next to the per-op kind.
func (p *Pool) TryAcquireBatch() (int, bool) { return p.tryAcquire(1) }

func (p *Pool) tryAcquire(batch uint64) (int, bool) {
	if p.Paused() {
		return 0, false
	}
	if tid, ok := p.pop(); ok {
		if !p.obtained(tid) {
			return 0, false
		}
		p.acquires.Add(1)
		p.tracer.Emit(tid, trace.KindGuardAcquire, trace.AcquireFreelist, batch)
		return tid, true
	}
	if p.waiters.Load() == 0 {
		select {
		case tid := <-p.hand:
			if !p.obtained(tid) {
				return 0, false
			}
			p.acquires.Add(1)
			p.tracer.Emit(tid, trace.KindGuardAcquire, trace.AcquireHandoff, batch)
			return tid, true
		default:
		}
	}
	return 0, false
}

// Release returns an id to the pool. With waiters registered the id is
// handed directly to one of them — never the freelist, where the next
// barging TryAcquire (often the releasing goroutine's own next operation,
// already running while the waiter sits in the scheduler queue) would
// beat the waiter to it every time. The id must have come from
// TryAcquire/Acquire and must not be released twice — the freelist trusts
// its caller the same way the schemes trust their tids.
func (p *Pool) Release(tid int) {
	// During a pause the freelist is the only destination: a handoff would
	// let a cycling waiter chain acquisitions through the gate. The check
	// can race the gate going up — a send that slips through mid-pause is
	// backed out by the receiving waiter's own gate re-check (it pushes
	// the id to the freelist and parks), so the invariant holds either
	// way. The held decrement comes after the id is visibly back, so a
	// pauser never reads Held()==0 while a release is still in flight.
	if !p.Paused() && p.waiters.Load() > 0 {
		_ = fpHandoff.Eval(tid) // sleep-only site; a release never fails
		select {
		case p.hand <- tid:
			p.held.Add(-1)
			return
		default: // buffer can only fill if callers over-release; fall through
		}
	}
	p.pushFree(tid)
	p.held.Add(-1)
}

// pushFree pushes an id onto the freelist: the versioned-head CAS loop
// shared by Release and the gated-acquisition back-out paths.
func (p *Pool) pushFree(tid int) {
	for {
		h := p.head.Load()
		p.slots[tid].next.Store(uint32(h))
		if p.head.CompareAndSwap(h, pack(h>>32+1, uint32(tid))) {
			return
		}
	}
}

// parkBackoff bounds how long a parked waiter sleeps between re-polls.
// Handoff via the wake channel is the normal wake path; the timer only
// covers ids that bypass the pool (a caller-side cache) racing a waiter's
// registration.
const (
	parkBackoffMin = time.Millisecond
	parkBackoffMax = 50 * time.Millisecond
)

// Acquire pops a free id, parking until one is released or ctx is done.
// spare, if non-nil, is polled before each park: it lets the caller offer
// ids it is holding outside the pool (e.g. an idle-guard cache) so a
// waiter never sleeps while the caller could satisfy it. spare must return
// an id the caller owns, which Acquire then hands to its own caller.
func (p *Pool) Acquire(ctx context.Context, spare func() (int, bool)) (int, error) {
	if tid, ok := p.TryAcquire(); ok {
		return tid, nil
	}
	backoff := parkBackoffMin
	// One reusable timer for the whole parked stretch: the contended path
	// parks hundreds of thousands of times a second, and a time.After per
	// park would churn that many dead timers through the GC. Reset is safe
	// without a drain here because the only path that loops back to it is
	// the timer case itself, which consumed the tick.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// A pause epoch parks everyone here, before the spare poll and the
		// waiter registration: a gated acquirer holds nothing and touches
		// nothing until Resume closes the epoch channel. In-flight
		// acquirers past this check at Pause time can still slip one pop
		// through; they come back around to the gate, so the pauser's
		// drain-to-quiescence wait stays bounded by the in-flight set.
		if g := p.gate.Load(); g != nil {
			select {
			case <-*g:
			case <-ctx.Done():
				p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
				return 0, ctx.Err()
			}
		}
		if spare != nil {
			if tid, ok := spare(); ok {
				// A spare id was already checked out of the pool when the
				// caller cached it, so held is untouched: from the pool's
				// view it stays held, just under a new owner.
				p.acquires.Add(1)
				p.tracer.Emit(tid, trace.KindGuardAcquire, trace.AcquireFreelist, 0)
				return tid, nil
			}
		}
		// Register, then re-poll the freelist: a Release that pushed there
		// before seeing our registration is caught by the poll; one that
		// ran after sees waiters > 0 and feeds the handoff channel we are
		// about to park on. Either way no id is lost.
		p.waiters.Add(1)
		if tid, ok := p.pop(); ok {
			p.waiters.Add(-1)
			if !p.obtained(tid) {
				continue // gated mid-pop; back to the pause epoch check
			}
			p.acquires.Add(1)
			p.tracer.Emit(tid, trace.KindGuardAcquire, trace.AcquireFreelist, 0)
			return tid, nil
		}
		p.parks.Add(1)
		p.tracer.Emit(trace.SharedTid, trace.KindGuardPark, 0, 0)
		if ctx.Err() != nil {
			// An already-done context leaves before the timer is armed: a
			// goroutine descheduled past the timer between arming it and
			// the select below could otherwise take the timer case, loop,
			// and count a second park for one cancelled attempt.
			p.waiters.Add(-1)
			p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
			return 0, ctx.Err()
		}
		if timer == nil {
			timer = time.NewTimer(backoff)
		} else {
			timer.Reset(backoff)
		}
		select {
		case tid := <-p.hand:
			p.waiters.Add(-1)
			if !p.obtained(tid) {
				// The handoff crossed a pause boundary (Release's gate check
				// raced the gate store): the id went back to the freelist,
				// and this waiter parks on the pause epoch like everyone
				// else. It re-registers after Resume.
				continue
			}
			p.acquires.Add(1)
			p.tracer.Emit(tid, trace.KindGuardAcquire, trace.AcquireHandoff, 0)
			return tid, nil
		case <-timer.C:
			if backoff *= 2; backoff > parkBackoffMax {
				backoff = parkBackoffMax
			}
		case <-ctx.Done():
			p.waiters.Add(-1)
			p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
			return 0, ctx.Err()
		}
		p.waiters.Add(-1)
		if tid, ok := p.TryAcquire(); ok {
			return tid, nil
		}
	}
}

// Waiters reports how many Acquire callers are currently registered to
// park. Callers holding ids outside the pool use it to prefer handing an
// id back over caching it while someone sleeps.
func (p *Pool) Waiters() int { return int(p.waiters.Load()) }

// Free counts the ids currently available: the freelist walked plus any
// ids parked in the handoff channel (handed to a waiter that left without
// them). The walk is bounded and every read is in-range, so it is always
// safe to call, but the count is only meaningful when the pool is
// quiescent — concurrent pops and pushes can make a racing walk over- or
// under-count (a racing pop can even leave a popped id's next pointer
// visible to the walk, over-counting a held id as free). It is a stats
// view; quiescence detection must use Held, which is exact under a pause
// epoch.
func (p *Pool) Free() int {
	n := len(p.hand)
	idx := uint32(p.head.Load())
	for idx != emptyIdx && n < len(p.slots) {
		n++
		idx = p.slots[idx].next.Load()
	}
	return n
}

// Stats is a monotonic census of pool traffic.
type Stats struct {
	// Acquires counts every id handed to a caller by TryAcquire or
	// Acquire, whether it came off the freelist, the handoff channel, or
	// the caller's spare supply.
	Acquires uint64
	// Parks counts the times an Acquire caller blocked waiting.
	Parks uint64
}

// Stats samples the counters; approximate under concurrency.
func (p *Pool) Stats() Stats {
	return Stats{Acquires: p.acquires.Load(), Parks: p.parks.Load()}
}
