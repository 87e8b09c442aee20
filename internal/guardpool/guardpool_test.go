package guardpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPopOrderAndExhaustion(t *testing.T) {
	p := New(4)
	if p.Cap() != 4 || p.Free() != 4 {
		t.Fatalf("Cap=%d Free=%d, want 4,4", p.Cap(), p.Free())
	}
	for want := 0; want < 4; want++ {
		tid, ok := p.TryAcquire()
		if !ok || tid != want {
			t.Fatalf("TryAcquire = %d,%v, want %d,true", tid, ok, want)
		}
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on an empty pool")
	}
	if p.Free() != 0 {
		t.Fatalf("Free = %d, want 0", p.Free())
	}
	p.Release(2)
	if tid, ok := p.TryAcquire(); !ok || tid != 2 {
		t.Fatalf("TryAcquire after Release(2) = %d,%v", tid, ok)
	}
}

func TestZeroAndOneSized(t *testing.T) {
	p := New(0)
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire on empty pool succeeded")
	}
	p = New(1)
	if tid, ok := p.TryAcquire(); !ok || tid != 0 {
		t.Fatalf("TryAcquire = %d,%v", tid, ok)
	}
	p.Release(0)
	if p.Free() != 1 {
		t.Fatalf("Free = %d, want 1", p.Free())
	}
}

// TestNoDuplicateHandout hammers TryAcquire/Release from many goroutines
// and asserts an id is never held by two goroutines at once — the claim
// CAS's whole job. Run with -race.
func TestNoDuplicateHandout(t *testing.T) {
	const ids, workers, iters = 4, 16, 20000
	p := New(ids)
	var held [ids]atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid, ok := p.TryAcquire()
				if !ok {
					continue
				}
				if held[tid].Swap(true) {
					t.Errorf("id %d handed out twice", tid)
					return
				}
				held[tid].Store(false)
				p.Release(tid)
			}
		}()
	}
	wg.Wait()
	if free := p.Free(); free != ids {
		t.Fatalf("pool drained: Free = %d, want %d", free, ids)
	}
}

func TestAcquireParksAndWakes(t *testing.T) {
	p := New(1)
	tid, ok := p.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed on a fresh pool")
	}
	got := make(chan int)
	go func() {
		id, err := p.Acquire(context.Background())
		if err != nil {
			t.Errorf("Acquire: %v", err)
		}
		got <- id
	}()
	// Give the waiter time to park, then hand off.
	time.Sleep(10 * time.Millisecond)
	p.Release(tid)
	select {
	case id := <-got:
		if id != tid {
			t.Fatalf("handed off id %d, want %d", id, tid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked Acquire never woke after Release")
	}
	if st := p.Stats(); st.Parks == 0 {
		t.Fatalf("Stats.Parks = 0 after a parked acquire (stats %+v)", st)
	}
}

// TestHandoffBeatsBarging: once a waiter is parked, a released id is
// reserved for it — a concurrent TryAcquire (the barging pattern that
// would otherwise starve the waiter forever on a busy system) must fail.
func TestHandoffBeatsBarging(t *testing.T) {
	p := New(1)
	tid, _ := p.TryAcquire()
	got := make(chan int)
	go func() {
		id, err := p.Acquire(context.Background())
		if err != nil {
			t.Errorf("Acquire: %v", err)
		}
		got <- id
	}()
	for p.Waiters() == 0 { // wait for registration
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let it reach the park
	p.Release(tid)
	if id, ok := p.TryAcquire(); ok {
		t.Fatalf("barging TryAcquire stole id %d reserved for the parked waiter", id)
	}
	select {
	case id := <-got:
		if id != tid {
			t.Fatalf("handed off id %d, want %d", id, tid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter never received the handed-off id")
	}
}

// TestStrandedHandoffRecovered: an id handed to a waiter that left
// (context cancel) must become acquirable again once no one is parked.
func TestStrandedHandoffRecovered(t *testing.T) {
	p := New(1)
	tid, _ := p.TryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, err := p.Acquire(ctx)
		errc <- err
	}()
	for p.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel() // the waiter leaves; a concurrent release may still hand to it
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Acquire = %v, want Canceled", err)
	}
	p.Release(tid) // waiters may still read >0 transiently; either path is fine
	deadline := time.Now().Add(2 * time.Second)
	for {
		if id, ok := p.TryAcquire(); ok {
			if id != tid {
				t.Fatalf("recovered id %d, want %d", id, tid)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("released id never became acquirable after the waiter left")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	p := New(1)
	p.TryAcquire() // drain
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire = %v, want DeadlineExceeded", err)
	}
}

// TestAcquireDoneContextParksOnce: an Acquire whose context is already
// done counts exactly one park on an empty pool and returns, whatever the
// scheduler does: the deterministic chaos engine parks its surplus
// workers this way and pins the park count per tick.
func TestAcquireDoneContextParksOnce(t *testing.T) {
	p := New(1)
	p.TryAcquire() // drain
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := p.Acquire(ctx); err != context.Canceled {
			t.Fatalf("Acquire = %v, want Canceled", err)
		}
	}
	if got := p.Stats().Parks; got != n {
		t.Fatalf("Parks = %d after %d cancelled attempts, want %d", got, n, n)
	}
	if w := p.Waiters(); w != 0 {
		t.Fatalf("Waiters = %d after the attempts returned, want 0", w)
	}
}

// TestHeldCounting pins the table's held count: up on acquire, down on
// release, zero on a quiescent pool, untouched by gated attempts.
func TestHeldCounting(t *testing.T) {
	p := New(2)
	if p.Held() != 0 {
		t.Fatalf("Held = %d on a fresh pool, want 0", p.Held())
	}
	a, _ := p.TryAcquire()
	b, _ := p.TryAcquire()
	if p.Held() != 2 {
		t.Fatalf("Held = %d with both ids out, want 2", p.Held())
	}
	p.Release(a)
	if p.Held() != 1 {
		t.Fatalf("Held = %d after one release, want 1", p.Held())
	}
	p.Pause()
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded during a pause")
	}
	if p.Held() != 1 {
		t.Fatalf("Held = %d after a gated TryAcquire, want 1 (gated attempts must not leak)", p.Held())
	}
	p.Release(b)
	if p.Held() != 0 {
		t.Fatalf("Held = %d after releasing during the pause, want 0", p.Held())
	}
	p.Resume()
	if p.Free() != 2 {
		t.Fatalf("Free = %d after resume, want 2", p.Free())
	}
}

// TestPausedReleaseGoesToFreelist: with a waiter parked, a Release during
// a pause must leave the id free for the pauser — not hand it to the
// waiter, which would chain a new acquisition through the gate — and
// Resume must then hand the waiter the id.
func TestPausedReleaseGoesToFreelist(t *testing.T) {
	p := New(1)
	tid, _ := p.TryAcquire()
	got := make(chan int)
	go func() {
		id, err := p.Acquire(context.Background())
		if err != nil {
			t.Errorf("Acquire: %v", err)
		}
		got <- id
	}()
	for p.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the waiter reach its park
	p.Pause()
	p.Release(tid)
	// Quiescent now: the id must be home and stay home while paused, the
	// parked waiter notwithstanding.
	deadline := time.Now().Add(2 * time.Second)
	for p.Held() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Held = %d after a paused release, want 0", p.Held())
		}
		time.Sleep(time.Millisecond)
	}
	if free := p.Free(); free != 1 {
		t.Fatalf("Free = %d with the pool paused and quiescent, want 1", free)
	}
	select {
	case id := <-got:
		t.Fatalf("waiter acquired id %d through the pause gate", id)
	case <-time.After(120 * time.Millisecond):
	}
	p.Resume()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never acquired after Resume")
	}
}

// TestPauseQuiescenceExact hammers the pool with acquire/release churn
// while a pauser repeatedly gates it and loops on Collect until it holds
// the whole table. At that point no worker may hold an id: each worker
// raises its id's ownership flag after acquiring and lowers it before
// releasing, so a flag still up means Collect reported quiescence while
// an id was in use — the exactness Switch's drain depends on. Run with
// -race.
func TestPauseQuiescenceExact(t *testing.T) {
	const ids, workers, pauses = 3, 8, 60
	p := New(ids)
	var owned [ids]atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	use := func(tid int) {
		if owned[tid].Swap(true) {
			t.Errorf("id %d handed out twice", tid)
		}
		owned[tid].Store(false)
		p.Release(tid)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				if w%2 == 0 {
					if tid, ok := p.TryAcquire(); ok {
						use(tid)
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				tid, err := p.Acquire(ctx)
				cancel()
				if err == nil {
					use(tid)
				}
			}
		}(w)
	}
	fail := func(format string, args ...any) {
		p.Resume()
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	for i := 0; i < pauses; i++ {
		p.Pause()
		deadline := time.Now().Add(5 * time.Second)
		for !p.Collect() {
			if time.Now().After(deadline) {
				fail("pause %d: Collect never gathered the table (held %d)", i, p.Held())
			}
			runtime.Gosched()
		}
		for tid := range owned {
			if owned[tid].Load() {
				fail("pause %d: Collect holds the table but a worker still owns id %d", i, tid)
			}
		}
		if h := p.Held(); h != ids {
			fail("pause %d: Held = %d with the table collected, want %d", i, h, ids)
		}
		p.Resume()
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if p.Held() != 0 || p.Free() != ids {
		t.Fatalf("after storm: Held = %d Free = %d, want 0,%d", p.Held(), p.Free(), ids)
	}
}

// TestConcurrentAcquireRelease drives blocking Acquire from 8x more
// goroutines than ids; every acquire must eventually succeed and the pool
// must end full.
func TestConcurrentAcquireRelease(t *testing.T) {
	const ids, workers, iters = 3, 24, 500
	p := New(ids)
	var wg sync.WaitGroup
	var held [ids]atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid, err := p.Acquire(context.Background())
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				if held[tid].Swap(true) {
					t.Errorf("id %d handed out twice", tid)
					return
				}
				held[tid].Store(false)
				p.Release(tid)
			}
		}()
	}
	wg.Wait()
	if free := p.Free(); free != ids {
		t.Fatalf("pool leaked: Free = %d, want %d", free, ids)
	}
	if st := p.Stats(); st.Acquires == 0 {
		t.Fatal("Stats.Acquires = 0")
	}
}
