// Tests for the guard runtime: lock-free acquisition from the guard table,
// parking, the leases behind the guardless API, and leak-freedom under
// goroutine churn. CI runs this file under -race.
package wfe_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// TestGoroutineChurn runs 8x more goroutines than MaxGuards through the
// guardless API across every scheme, plus a pinned insert-delete pair that
// holds a guard across two operations: goroutines outnumbering and
// outliving guards is exactly the scenario the guard runtime exists for.
// After quiescing, the guard pool must hold all MaxGuards tids again — a
// missing one means an operation leaked its lease — and the arena census
// must account for every block.
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
					switch rng.Intn(6) {
					case 0:
						err = s.TryPush(key)
					case 1:
						s.Pop()
					case 2:
						err = m.TryPut(key, key)
					case 3:
						m.Delete(key)
					case 4:
						m.Get(key)
					default:
						g := d.Pin()
						if _, err = m.TryInsertGuarded(g, key, key); err == nil {
							m.DeleteGuarded(g, key)
						}
						d.Unpin(g)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		tel := d.Telemetry()
		if tel.GuardAcquires == 0 {
			t.Fatal("churn drove no pool acquisitions")
		}
		if tel.GuardCacheHits == 0 {
			t.Fatal("no lease reclaimed an unpinned guard under churn; the lease hint is not working")
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
		if err := quiesce.Check(d, false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGuardAcquisitionAllocatesNothing: every acquisition path claims a
// tid's one Guard, made by NewDomain, so acquiring and returning a guard
// allocates nothing on any path.
func TestGuardAcquisitionAllocatesNothing(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"Guard/Release", func() { d.Guard().Release() }},
		{"TryGuard/Release", func() {
			g, ok := d.TryGuard()
			if !ok {
				panic("TryGuard failed on an idle domain")
			}
			g.Release()
		}},
		{"AcquireGuard/Release", func() {
			g, err := d.AcquireGuard(ctx)
			if err != nil {
				panic(err)
			}
			g.Release()
		}},
		{"Pin/Unpin", func() { d.Unpin(d.Pin()) }},
	} {
		if n := testing.AllocsPerRun(100, tc.cycle); n != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", tc.name, n)
		}
	}
}

// TestDoubleReleasePanics: Release unbinds the guard from its Domain, so
// a second Release fails fast instead of freeing a tid the caller no
// longer holds, and the Domain stays whole.
func TestDoubleReleasePanics(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	g.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release of the same guard did not panic")
			}
		}()
		g.Release()
	}()
	if free := d.Telemetry().GuardsFree; free != 1 {
		t.Fatalf("GuardsFree = %d after the panicking Release, want 1", free)
	}
	d.Guard().Release()
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

// TestAcquireGuardClaimsCachedLease: a guard a lease returned with Unpin
// is free for explicit acquisition at once — idle leased guards must
// never make the domain look exhausted.
func TestAcquireGuardClaimsCachedLease(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	if err := s.TryPush(1); err != nil { // leases and unpins the only guard
		t.Fatal(err)
	}
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed while the only guard sat unpinned")
	}
	g.Release()
}

// TestUnpinHandsOffToWaiter: Unpin must hand the guard to a parked
// acquirer instead of leaving it for the next Pin on its own P while the
// waiter sleeps.
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
// count as lease-cache hits: each claims, without parking, the guard the
// cycle before returned with Unpin. The count must hold under -race too,
// where sync.Pool drops a quarter of its Puts and the hint misses.
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
		t.Fatalf("GuardsFree = %d with every guard unpinned, want 2", free)
	}
}

// TestFlushGuardCacheIdempotent: repeated flushes report no stranded
// guard.
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

// TestFlushIgnoresHeldGuards: a guard claimed after a lease unpinned it
// and still explicitly held belongs to its holder — FlushGuardCache must
// not count it as stranded nor disturb it.
func TestFlushIgnoresHeldGuards(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	if err := s.TryPush(1); err != nil { // leases and unpins the only guard
		t.Fatal(err)
	}
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed to claim the unpinned guard")
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

// TestLenTakesNoGuard pins that every structure's Len walks it without
// leasing a guard: with every guard held, Len still returns the right
// count, where a lease would park until a guard came back.
func TestLenTakesNoGuard(t *testing.T) {
	for _, st := range conformStructures {
		t.Run(st.name, func(t *testing.T) {
			d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 10, MaxGuards: 2})
			if err != nil {
				t.Fatal(err)
			}
			api := st.build(d)
			for k := uint64(0); k < 3; k++ {
				if _, err := api.insert(nil, k); err != nil {
					t.Fatal(err)
				}
			}
			for g, ok := d.TryGuard(); ok; g, ok = d.TryGuard() {
				defer g.Release()
			}
			n := make(chan int, 1)
			go func() { n <- api.length() }()
			select {
			case got := <-n:
				if got != 3 {
					t.Fatalf("Len() = %d, want 3", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Len parked with every guard held")
			}
		})
	}
}
