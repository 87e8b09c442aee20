package wfe_test

// Guard-stall edge cases: a reader stalled mid-operation must neither
// deadlock the guard runtime's maintenance paths nor lose the block it
// protects, and a parked acquirer must stay cancellable. These are the
// single-guard corners of the schedules internal/chaos injects at scale.

import (
	"context"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// TestStalledGuardSurvivesFlushAndDrain stalls a reader holding a live
// reservation over a node, retires that node from another guard, churns
// enough retirements through the domain to force many cleanup scans, and
// calls FlushGuardCache mid-stall. The flush and the churn must both
// complete (no deadlock on the held guard), and the protected block must
// still be alive and intact — the Debug arena turns a premature free
// into a loud failure.
func TestStalledGuardSurvivesFlushAndDrain(t *testing.T) {
	forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
		d := testDomain(t, kind, 2, 1<<14, forceSlow)
		holder := d.Guard()
		worker := d.Guard()

		var cell wfe.Atomic[uint64]
		first := worker.Alloc(0xdead)
		cell.Store(first)

		// The stall: holder is mid-operation, protecting the cell's node.
		holder.Begin()
		ref := holder.Protect(&cell, 0)
		if ref.IsNil() {
			t.Fatal("protected ref is nil")
		}

		// Another thread replaces and retires the protected node.
		repl := worker.Alloc(0xbeef)
		if !cell.CompareAndSwap(ref, repl) {
			t.Fatal("hot cell CAS failed with no contention")
		}
		worker.Retire(ref)

		// Drive plenty of cleanup scans past the stalled reservation.
		scratch := wfe.NewStack[uint64](d)
		for i := 0; i < 512; i++ {
			if err := scratch.TryPushGuarded(worker, uint64(i)); err != nil {
				t.Fatal(err)
			}
			scratch.PopGuarded(worker)
		}

		// Guard maintenance mid-stall: both explicit guards are held, so
		// the flush has nothing to recover and must simply return.
		if stranded := d.FlushGuardCache(); stranded != 0 {
			t.Fatalf("FlushGuardCache recovered %d guards while all are explicitly held", stranded)
		}
		for i := 0; i < 512; i++ {
			if err := scratch.TryPushGuarded(worker, uint64(i)); err != nil {
				t.Fatal(err)
			}
			scratch.PopGuarded(worker)
		}

		// The stalled reader's block must still be alive and untouched.
		if v := holder.Value(ref); v != 0xdead {
			t.Fatalf("protected block corrupted during stall: value %#x, want 0xdead", v)
		}

		// Stall lifts; drain the cell and scavenge. The once-protected
		// block must now be reclaimable (quiesce asserts the backlog
		// collapses for every scheme but Leak).
		holder.End()
		if cell.CompareAndSwap(repl, wfe.Ref[uint64]{}) {
			worker.Retire(repl)
		}
		holder.Release()
		worker.Release()
		d.Scavenge()
		if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStalledProtectWordKeepsChild stalls a reader holding a ProtectWord
// reservation on a block reached through another block's link word, then
// unlinks and retires that block from another guard and drives cleanup
// scans past the stall: the block must stay alive and intact. The block
// is allocated after the era clock has moved past the reader's root
// reservation, so under every scheme but EBR and Leak only the
// ProtectWord reservation covers it.
func TestStalledProtectWordKeepsChild(t *testing.T) {
	forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
		d := testDomain(t, kind, 2, 1<<14, forceSlow)
		reader := d.Guard()
		writer := d.Guard()
		scratch := wfe.NewStack[uint64](d)
		churn := func() {
			for i := 0; i < 512; i++ {
				if err := scratch.TryPushGuarded(writer, uint64(i)); err != nil {
					t.Fatal(err)
				}
				scratch.PopGuarded(writer)
			}
		}

		var root wfe.Atomic[uint64]
		parent := writer.Alloc(0)
		root.Store(parent)

		reader.Begin()
		p := reader.Protect(&root, 0)
		churn()
		child := writer.Alloc(0xdead)
		writer.Store(parent, 0, child)
		if got := reader.ProtectWord(p, 0, 1); got != child {
			t.Fatalf("ProtectWord read %v, want the linked block %v", got, child)
		}
		if !writer.CompareAndSwap(parent, 0, child, wfe.Ref[uint64]{}) {
			t.Fatal("unlink CAS failed with no contention")
		}
		writer.Retire(child)
		churn()
		if v := reader.Value(child); v != 0xdead {
			t.Fatalf("block protected through ProtectWord corrupted during stall: value %#x, want 0xdead", v)
		}

		reader.End()
		root.Store(wfe.Ref[uint64]{})
		writer.Retire(parent)
		reader.Release()
		writer.Release()
		d.Scavenge()
		if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAcquireGuardExplicitCancel parks an acquirer on a fully-held pool
// and cancels it explicitly: the park must return context.Canceled
// promptly, and the pool must stay fully usable afterwards — a canceled
// waiter cannot strand a tid or wedge the handoff.
func TestAcquireGuardExplicitCancel(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := d.AcquireGuard(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer park
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("parked AcquireGuard returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked AcquireGuard never observed cancellation")
	}
	if tel := d.Telemetry(); tel.GuardParks == 0 {
		t.Fatalf("acquirer never parked; the test exercised nothing: %+v", tel)
	}

	// The pool must be whole: the held guard releases, and both an
	// explicit acquire and a fresh context-acquire succeed.
	g.Release()
	g2, err := d.AcquireGuard(context.Background())
	if err != nil {
		t.Fatalf("AcquireGuard after canceled waiter: %v", err)
	}
	g2.Release()
	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("%d guards stranded after canceled waiter", stranded)
	}
	tel := d.Telemetry()
	if tel.GuardsFree != tel.MaxGuards {
		t.Fatalf("guard leak after canceled waiter: %d/%d free", tel.GuardsFree, tel.MaxGuards)
	}
}
