// Package guardpool is the guard runtime's tid table: it hands out the
// dense thread ids (0..n-1) that every reclamation scheme's per-thread
// state is indexed by, plus a parking layer for callers that would rather
// block than fail when all ids are held.
//
// The table is one state word per id (free, held or handed), each padded
// to its own cache line, matching the per-thread state layout of
// internal/mem and internal/core. Claiming a known id is one CAS on that
// id's word (TryClaim); claiming any id is one pass over the table that
// takes the lowest free one (TryAcquire), so at most Cap() CAS attempts.
// No mutex, no syscall, no shared head word for claimers to fight over.
//
// Parking (Acquire) uses DIRECT handoff: when waiters are registered,
// Release marks the freed id handed and sends it into a channel reserved
// for them, and TryAcquire refuses to poach from that channel while
// anyone waits. Without the reservation a parked waiter can starve
// forever — the releasing goroutine's own next acquire (or any barger's)
// wins the free id long before the scheduler runs the woken waiter, which
// on a busy system happens every single time. No wakeup is lost and no
// timer is needed: Release stores free before it reads the waiter count,
// and Acquire registers before it re-scans the table, so one of the two
// always sees the other.
package guardpool

import (
	"context"
	"sync"
	"sync/atomic"

	"wfe/internal/failpoint"
	"wfe/internal/trace"
)

// fpHandoff fires on Release's direct-handoff path, before the freed id
// is offered to a parked waiter. A sleep trigger holds the releaser
// inside the handoff window — the schedule where pause collection and
// waiter wakeups race — for the chaos harness; injected errors are
// ignored (a release must always complete).
var fpHandoff = failpoint.New("guardpool-handoff")

// The states of a table cell.
const (
	free   uint32 = iota // claimable by anyone
	held                 // claimed by a caller (or collected by a pauser)
	handed               // released into the handoff channel for a parked waiter
)

// cell is one id's state word, padded so neighbouring ids' claim and
// release traffic stays off each other's cache lines.
type cell struct {
	state atomic.Uint32
	_     [60]byte
}

// Pool is a lock-free table of the dense ids 0..Cap()-1. The zero value
// is not usable; construct with New.
type Pool struct {
	cells []cell
	hand  chan int

	// waiters counts Acquire callers that are registered to park. While it
	// is non-zero, Release hands freed ids into hand — reserved for parked
	// waiters, off-limits to TryAcquire — instead of leaving them free.
	waiters atomic.Int32

	// gate, when non-nil, is the pause epoch: new acquisitions wait on the
	// channel it points to until Resume closes it. pauseMu serializes
	// pausers (held from Pause to Resume) so overlapping pause epochs
	// cannot interleave their gate swaps. pauseSeq increments on every
	// Pause (to odd) and every Resume (to even): an acquirer that reads it
	// equal and even around a failed acquisition knows no pause epoch
	// overlapped the attempt — the failure was genuine exhaustion, not the
	// gate. collected lists the ids Collect claimed for the pauser; only
	// the pauser touches it, under pauseMu.
	gate      atomic.Pointer[chan struct{}]
	pauseMu   sync.Mutex
	pauseSeq  atomic.Uint64
	collected []int

	// tracer, when set before use, receives guard lifecycle events
	// (acquire, park, cancel). Nil costs one branch per event site.
	tracer *trace.Tracer

	// The census counters sit on their own line: the claim and release
	// paths above only read the words they share.
	_        [64]byte
	acquires atomic.Uint64
	parks    atomic.Uint64
}

// SetTracer installs the lifecycle event tracer. Call before the pool is
// shared between goroutines (the field is written once, read racily
// thereafter by design: the tracer pointer never changes after setup).
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// New creates a pool holding the ids 0..n-1, all free.
func New(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{
		cells:     make([]cell, n),
		hand:      make(chan int, n), // never blocks: at most n ids exist
		collected: make([]int, 0, n),
	}
}

// Cap returns the number of ids the pool manages.
func (p *Pool) Cap() int { return len(p.cells) }

// TryClaim claims id tid if it is free, reporting whether it did — the
// one-CAS path for a caller that knows which id it wants (the Domain's
// per-P lease hint, the emergency pipeline borrowing an idle id). It
// refuses while a pause epoch is in effect, and never takes an id handed
// to a parked waiter.
func (p *Pool) TryClaim(tid int) bool {
	return !p.Paused() && p.cells[tid].state.CompareAndSwap(free, held)
}

// claimLowest makes one pass over the table and claims the lowest free
// id: at most Cap() CAS attempts, one per id seen free.
func (p *Pool) claimLowest() (int, bool) {
	for tid := range p.cells {
		s := &p.cells[tid].state
		if s.Load() == free && s.CompareAndSwap(free, held) {
			return tid, true
		}
	}
	return 0, false
}

// receive claims an id taken out of the handoff channel.
func (p *Pool) receive(tid int) int {
	p.cells[tid].state.Store(held)
	return tid
}

// Pause gates new acquisitions: until Resume, TryClaim and TryAcquire
// report no free ids and Acquire parks on the pause epoch. Ids already
// held stay held — Pause revokes nothing; the pauser collects them as
// they come back (Collect). Releases during a pause leave the id free for
// the pauser, never hand it to a parked waiter. Concurrent pausers
// serialize: the second Pause blocks until the first Resume.
func (p *Pool) Pause() {
	p.pauseMu.Lock()
	// The sequence increment precedes the gate store: any acquirer whose
	// failed attempt raced this gate sees the sequence change and knows a
	// pause overlapped it (see Pool.pauseSeq).
	p.pauseSeq.Add(1)
	ch := make(chan struct{})
	p.gate.Store(&ch)
}

// Collect claims for the pauser every free id and every id stranded in
// the handoff channel, and reports whether the pauser now holds the whole
// table. Call it only between Pause and Resume; a pauser that needs
// quiescence loops on it. An acquirer whose claim raced the gate going up
// keeps its id, and Collect takes that id once it comes back: while the
// pauser holds an id, nobody else can use it, so once Collect reports
// true no id is in use anywhere.
func (p *Pool) Collect() bool {
	for tid := range p.cells {
		if p.cells[tid].state.CompareAndSwap(free, held) {
			p.collected = append(p.collected, tid)
		}
	}
	for {
		select {
		case tid := <-p.hand:
			p.collected = append(p.collected, p.receive(tid))
		default:
			return len(p.collected) == len(p.cells)
		}
	}
}

// Resume ends the pause epoch. It collects once more, lifts the gate,
// and then releases every collected id, so acquirers that parked before
// the pause are handed the ids the pause withheld. Only then does the
// pause sequence turn even: until the collected ids are back, a failed
// acquisition is still the pause's doing, not exhaustion.
func (p *Pool) Resume() {
	p.Collect()
	ch := p.gate.Swap(nil)
	close(*ch)
	for _, tid := range p.collected {
		p.Release(tid)
	}
	p.collected = p.collected[:0]
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

// Held counts the ids currently held, the pauser's collected ones
// included. Under concurrency it is a racing census of the table.
func (p *Pool) Held() int {
	n := 0
	for i := range p.cells {
		if p.cells[i].state.Load() == held {
			n++
		}
	}
	return n
}

// Free counts the ids currently available: free ones plus any handed to
// a waiter that left without them. Under concurrency it is a racing
// census of the table; quiescence detection uses Collect.
func (p *Pool) Free() int { return len(p.cells) - p.Held() }

// TryAcquire claims the lowest free id, reporting false when none is
// free. Ids that Release handed to parked waiters are reserved:
// TryAcquire only drains the handoff channel when nobody is registered to
// park (a waiter that left without its id — context cancelled — strands
// it there until someone claims it). During a pause epoch it reports
// false.
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
	if tid, ok := p.claimLowest(); ok {
		p.acquired(tid, trace.AcquireFreelist, batch)
		return tid, true
	}
	if p.waiters.Load() == 0 {
		select {
		case tid := <-p.hand:
			p.acquired(p.receive(tid), trace.AcquireHandoff, batch)
			return tid, true
		default:
		}
	}
	return 0, false
}

// acquired accounts one id handed to a caller.
func (p *Pool) acquired(tid int, source, batch uint64) {
	p.acquires.Add(1)
	p.tracer.Emit(tid, trace.KindGuardAcquire, source, batch)
}

// Release returns an id to the pool. The id becomes free at once; with
// waiters registered (and no pause in effect) it is then handed directly
// to one of them — never left free, where the next barging TryAcquire
// (often the releasing goroutine's own next operation, already running
// while the waiter sits in the scheduler queue) would beat the waiter to
// it every time. The id must be held by the caller and must not be
// released twice — the table trusts its caller the same way the schemes
// trust their tids.
func (p *Pool) Release(tid int) {
	s := &p.cells[tid].state
	// Free first, waiters second: an Acquire that registered too late to
	// be seen here re-scans the table after registering and finds the id.
	s.Store(free)
	if p.waiters.Load() == 0 || p.Paused() {
		return
	}
	// Reserve the id for a parked waiter. The CAS fails only if a claimer
	// took the free id first; that claimer releases it again later.
	if s.CompareAndSwap(free, handed) {
		_ = fpHandoff.Eval(tid) // sleep-only site; a release never fails
		p.hand <- tid
	}
}

// Acquire claims a free id, parking until one is released or ctx is
// done.
func (p *Pool) Acquire(ctx context.Context) (int, error) {
	if tid, ok := p.TryAcquire(); ok {
		return tid, nil
	}
	for {
		// A pause epoch parks everyone here, before the waiter
		// registration: a gated acquirer holds nothing and touches nothing
		// until Resume closes the epoch channel.
		if g := p.gate.Load(); g != nil {
			select {
			case <-*g:
			case <-ctx.Done():
				p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
				return 0, ctx.Err()
			}
		}
		// Register, then re-scan: a Release that stored free before seeing
		// our registration is caught by the scan; one that read the
		// registration feeds the handoff channel we are about to park on.
		// Either way no id is lost.
		p.waiters.Add(1)
		if p.Paused() {
			p.waiters.Add(-1)
			continue // gated since the check above
		}
		if tid, ok := p.claimLowest(); ok {
			p.waiters.Add(-1)
			p.acquired(tid, trace.AcquireFreelist, 0)
			return tid, nil
		}
		p.parks.Add(1)
		p.tracer.Emit(trace.SharedTid, trace.KindGuardPark, 0, 0)
		if ctx.Err() != nil {
			// An already-done context leaves without entering the select,
			// where a handed id could win the race and turn one cancelled
			// attempt into an acquisition.
			p.waiters.Add(-1)
			p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
			return 0, ctx.Err()
		}
		select {
		case tid := <-p.hand:
			p.waiters.Add(-1)
			p.acquired(p.receive(tid), trace.AcquireHandoff, 0)
			return tid, nil
		case <-ctx.Done():
			p.waiters.Add(-1)
			p.tracer.Emit(trace.SharedTid, trace.KindGuardCancel, 0, 0)
			return 0, ctx.Err()
		}
	}
}

// Waiters reports how many Acquire callers are currently registered to
// park.
func (p *Pool) Waiters() int { return int(p.waiters.Load()) }

// Stats is a monotonic census of pool traffic.
type Stats struct {
	// Acquires counts every id handed to a caller by TryAcquire or
	// Acquire, whether it was claimed free or handed off. TryClaim is not
	// counted.
	Acquires uint64
	// Parks counts the times an Acquire caller blocked waiting.
	Parks uint64
}

// Stats samples the counters; approximate under concurrency.
func (p *Pool) Stats() Stats {
	return Stats{Acquires: p.acquires.Load(), Parks: p.parks.Load()}
}
