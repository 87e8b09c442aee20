package wfe

import "wfe/internal/trace"

// Batch context: the machinery behind the batch entry points on the public
// structures (MultiGet, MultiDelete, TryMulti*, TryPushAll, PopN,
// TryEnqueueAll, DequeueN).
//
// A per-op Guarded call pays four amortizable costs every time: a lease
// claim (guardless paths), a protection span (Begin/End), retire-ring
// publication, and a tick of the scan-gating counter. A batch pays each
// once per burst instead:
//
//   - one lease: the guardless batch wrappers Pin once and run every
//     item under that guard;
//   - one protection span where the scheme allows it: BeginBatch reports
//     whether a single reservation covers the whole burst (era, epoch and
//     interval schemes — one span is indistinguishable from one long
//     operation) or whether protection must still rotate per item (hazard
//     pointers protect one identity per slot, so batchStep re-arms them
//     between items);
//   - one retire submission: Guard.Retire diverts into batchRetires while
//     the context is open, and endBatch hands the whole run to
//     Scheme.RetireBatch, which bumps the scan-gating counter once — the
//     cleanup cadence counts bursts, not items, so a 128-item burst
//     cannot trigger 4 mid-burst scans under the default CleanupFreq.
//
// The context lives on the Guard and is strictly owner-goroutine state,
// like the protection slots themselves: a Guard is single-threaded by
// contract, so none of these fields are atomic.

// beginBatch opens the batch context on g. intended is the item count the
// caller plans to run (0 when open-ended, e.g. PopN draining early); it
// only labels the trace span. Callers must pair it with endBatch, usually
// via defer, so a panicking item cannot strand the guard with batching
// set and retires undelivered. While the context is open, Guard.Begin and
// Guard.End degrade to batch-aware forms, so the per-op Guarded method
// bodies run unchanged inside a batch.
func (g *Guard[T]) beginBatch(intended int) {
	if g.batching {
		panic("wfe: nested batch operation on one guard")
	}
	g.batching = true
	g.batchSpan = g.d.scheme().s.BeginBatch(g.tid)
	g.d.tracer.Emit(g.tid, trace.KindBatchBegin, uint64(intended), 0)
}

// batchStep is what Guard.End does between consecutive items of a batch.
// Under a batch-wide span it is free: the reservation taken at
// beginBatch keeps covering the next item. When the scheme declined a
// span (hazard pointers), it clears the guard's slots exactly as End
// would, so each item re-protects from scratch and the per-item HP
// safety argument is untouched — batching then amortizes only the lease
// and the retire cadence, never protection.
func (g *Guard[T]) batchStep() {
	if !g.batchSpan {
		g.d.scheme().s.Clear(g.tid)
	}
}

// endBatch closes the batch context: submit the deferred retires as one
// burst, drop the batch-wide reservation, and account the batch. Retires
// go in before the span closes, mirroring the per-op order (Retire, then
// End); the deferred stamps read the scheme clock at submission, which is
// >= its value at each unlink — strictly more conservative, so every
// per-scheme safety argument carries over. items is the number of
// operations the batch actually ran.
func (g *Guard[T]) endBatch(items int) {
	sch := g.d.scheme().s
	retired := len(g.batchRetires)
	if retired == 1 {
		// A single deferred retire gains nothing from the batch
		// submission; the per-op path is a few ns cheaper.
		sch.Retire(g.tid, g.batchRetires[0])
		g.batchRetires = g.batchRetires[:0]
	} else if retired > 1 {
		sch.RetireBatch(g.tid, g.batchRetires)
		// Keep the backing array: a pinned guard running bursts in a hot
		// loop reuses it without reallocating.
		g.batchRetires = g.batchRetires[:0]
	}
	sch.EndBatch(g.tid)
	g.batching = false
	g.batchSpan = false
	g.noteBatch(items)
	g.d.tracer.Emit(g.tid, trace.KindBatchEnd, uint64(items), uint64(retired))
}

// runBatch runs fn(i) for each i in [0, n) inside one batch context and
// returns how many items completed. Each item must run inside its own
// Begin/End, as every per-op body does: inside the batch they rotate
// protection per item, and a batch of one relies on them. fn reports
// whether its item did any work; the first false
// stops the batch early without counting it (PopN on an emptied stack,
// DequeueN on a drained queue). It is the shared skeleton for the batch
// APIs whose per-item work cannot fail on allocation.
func (g *Guard[T]) runBatch(n int, fn func(i int) bool) int {
	if n == 1 {
		// A batch of one has nothing to amortize: the span, the deferred
		// retire and the trace bracket would be pure overhead on top of
		// per-op cost. Run the item as the equivalent per-op call — with
		// batching unset, its Begin/End/Retire take the normal per-op
		// paths — and keep only the batch accounting.
		done := 0
		if fn(0) {
			done = 1
		}
		g.noteBatch(done)
		return done
	}
	g.beginBatch(n)
	done := 0
	defer func() { g.endBatch(done) }()
	for i := 0; i < n; i++ {
		if !fn(i) {
			break
		}
		done++
	}
	return done
}

// batchResult is the empty result of a batch read of up to n values (PopN,
// DequeueN): no structure holds more values than its Domain has blocks, so
// its capacity is n capped at Capacity, and none for n <= 0.
func (d *Domain[T]) batchResult(n int) []T {
	return make([]T, 0, max(0, min(n, d.arena.Capacity())))
}

// runLeaseBatch is runBatch without the scheme-level batch context: one
// lease, per-op protection. The wait-free queues need it — their helping
// protocols drive the scheme's Begin/Clear per operation from inside
// internal/ds, so opening a batch-wide span around them would be cleared
// mid-batch by the first internal operation. Batching there amortizes
// the lease and the telemetry, and the trace span still brackets the
// burst.
func (g *Guard[T]) runLeaseBatch(n int, fn func(i int) bool) int {
	g.d.tracer.Emit(g.tid, trace.KindBatchBegin, uint64(n), 0)
	done := 0
	defer func() {
		g.noteBatch(done)
		g.d.tracer.Emit(g.tid, trace.KindBatchEnd, uint64(done), 0)
	}()
	for i := 0; i < n; i++ {
		if !fn(i) {
			break
		}
		done++
	}
	return done
}
