// Tests for the guard runtime: lock-free acquisition, parking, the lease
// cache behind the guardless API, and leak-freedom under goroutine churn.
// CI runs this file under -race.
package wfe_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wfe"
)

// TestGoroutineChurn runs 8x more goroutines than MaxGuards through the
// guardless API across every scheme: goroutines outnumbering and
// outliving guards is exactly the scenario the guard runtime exists for.
// After quiescing, the guard pool must hold all MaxGuards tids again — a
// missing one means an operation leaked its lease.
func TestGoroutineChurn(t *testing.T) {
	forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
		const guards, goroutines, iters = 4, 32, 300
		capacity := 1 << 16
		if kind == wfe.Leak {
			capacity = 1 << 18
		}
		d := testDomain(t, kind, guards, capacity, forceSlow)
		s := wfe.NewStack[uint64](d)
		m := wfe.NewHashMap[uint64](d, 64)

		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*271 + 1))
				for i := 0; i < iters; i++ {
					key := uint64(rng.Intn(128))
					var err error
					switch rng.Intn(5) {
					case 0:
						err = s.TryPush(key)
					case 1:
						s.Pop()
					case 2:
						err = m.TryPut(key, key)
					case 3:
						m.Delete(key)
					default:
						m.Get(key)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		if stranded := d.FlushGuardCache(); stranded != 0 {
			t.Fatalf("%d guards stranded in the lease cache after flush", stranded)
		}
		tel := d.Telemetry()
		if tel.GuardsFree != guards {
			t.Fatalf("guard leak: %d/%d tids back on the freelist", tel.GuardsFree, guards)
		}
		if tel.GuardAcquires == 0 {
			t.Fatal("churn drove no pool acquisitions")
		}
		if tel.GuardCacheHits == 0 {
			t.Fatal("lease cache never hit under churn; caching is not working")
		}
		// The pool really refills: MaxGuards explicit acquisitions succeed.
		held := make([]*wfe.Guard[uint64], guards)
		for i := range held {
			g, ok := d.TryGuard()
			if !ok {
				t.Fatalf("TryGuard %d/%d failed after quiesce", i+1, guards)
			}
			held[i] = g
		}
		if _, ok := d.TryGuard(); ok {
			t.Fatal("TryGuard handed out more than MaxGuards")
		}
		for _, g := range held {
			g.Release()
		}
	})
}

// TestAcquireGuardParks: an AcquireGuard on an exhausted domain must park
// and be handed the guard a Release frees.
func TestAcquireGuardParks(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	got := make(chan *wfe.Guard[int])
	go func() {
		g2, err := d.AcquireGuard(context.Background())
		if err != nil {
			t.Errorf("AcquireGuard: %v", err)
		}
		got <- g2
	}()
	// Release once the acquirer has parked, not after a fixed sleep: on a
	// loaded host the acquirer may not run for longer than any sleep, and
	// would then take the freed guard without parking.
	for deadline := time.Now().Add(2 * time.Second); d.Telemetry().GuardParks == 0; {
		if time.Now().After(deadline) {
			t.Fatal("AcquireGuard on an exhausted domain never parked")
		}
		time.Sleep(time.Millisecond)
	}
	g.Release()
	select {
	case g2 := <-got:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("parked AcquireGuard never woke after Release")
	}
	if tel := d.Telemetry(); tel.GuardParks == 0 {
		t.Fatalf("Telemetry.GuardParks = 0 after a parked acquire: %+v", tel)
	}
}

// TestAcquireGuardContext: a done context unblocks a parked AcquireGuard
// with its error.
func TestAcquireGuardContext(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	defer g.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.AcquireGuard(ctx); err != context.DeadlineExceeded {
		t.Fatalf("AcquireGuard = %v, want DeadlineExceeded", err)
	}
}

// TestAcquireGuardClaimsCachedLease: a guard idling in the lease cache
// counts as free for explicit acquisition — cached leases must never make
// the domain look exhausted.
func TestAcquireGuardClaimsCachedLease(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	if err := s.TryPush(1); err != nil { // leaves the only guard in the lease cache
		t.Fatal(err)
	}
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed while the only guard sat idle in the cache")
	}
	g.Release()
}

// TestUnpinHandsOffToWaiter: Unpin must feed a parked acquirer instead of
// caching the guard on its own P while the waiter sleeps.
func TestUnpinHandsOffToWaiter(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Pin()
	got := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g2, err := d.AcquireGuard(ctx)
		if err == nil {
			g2.Release()
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer park
	d.Unpin(g)
	if err := <-got; err != nil {
		t.Fatalf("parked acquirer starved across Unpin: %v", err)
	}
}

// TestPinReusesLease: consecutive Pin/Unpin cycles on one goroutine must
// hit the per-P cache, not the pool.
func TestPinReusesLease(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g := d.Pin()
		d.Unpin(g)
	}
	tel := d.Telemetry()
	if tel.GuardCacheHits < 90 {
		t.Fatalf("GuardCacheHits = %d after 100 Pin/Unpin cycles (misses %d)",
			tel.GuardCacheHits, tel.GuardCacheMisses)
	}
	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("%d guards stranded after flush", stranded)
	}
	if free := d.Telemetry().GuardsFree; free != 2 {
		t.Fatalf("GuardsFree = %d after flush, want 2", free)
	}
}

// TestFlushGuardCacheIdempotent: flushing an empty cache is a no-op and
// repeated flushes stay clean.
func TestFlushGuardCacheIdempotent(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if stranded := d.FlushGuardCache(); stranded != 0 {
			t.Fatalf("flush %d stranded %d guards", i, stranded)
		}
	}
}

// TestFlushIgnoresHeldGuards: a guard claimed out of the lease cache and
// still explicitly held occupies its sticky registry slot, but it belongs
// to its holder, not the cache — FlushGuardCache must not count it as
// stranded nor disturb it.
func TestFlushIgnoresHeldGuards(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	if err := s.TryPush(1); err != nil { // parks the only guard in the cache with a sticky slot
		t.Fatal(err)
	}
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed to claim the cached guard")
	}
	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("flush counted the explicitly held guard as stranded (%d)", stranded)
	}
	if v, ok := s.PopGuarded(g); !ok || v != 1 {
		t.Fatalf("held guard unusable after flush: Pop = %d,%v", v, ok)
	}
	g.Release()
	if free := d.Telemetry().GuardsFree; free != 1 {
		t.Fatalf("GuardsFree = %d after release, want 1", free)
	}
}
