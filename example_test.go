package wfe_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wfe"
)

// ExampleDomain shows the simplest use of the public API: build a Domain
// over a reclamation scheme and call the structures' guardless methods —
// the guard runtime leases reclamation slots per operation, so no Guard
// appears at all. Swapping wfe.WFE for any other SchemeKind changes the
// reclamation algorithm, not a line of data-structure code — the
// "universal" in universal memory reclamation. Writes return
// ErrArenaExhausted if the arena stays full; this one never fills.
func ExampleDomain() {
	d, err := wfe.NewDomain[string](wfe.Options{
		Scheme:   wfe.WFE, // or HE, HP, EBR, TwoGEIBR, Leak, WFEIBR
		Capacity: 1024,    // blocks in the arena
	})
	if err != nil {
		panic(err)
	}

	s := wfe.NewStack[string](d)
	for _, v := range []string{"world", "hello"} {
		if err := s.TryPush(v); err != nil {
			panic(err)
		}
	}
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		fmt.Println(v)
	}

	m := wfe.NewHashMap[string](d, 16)
	if err := m.TryPut(42, "answer"); err != nil {
		panic(err)
	}
	if v, ok := m.Get(42); ok {
		fmt.Println(v)
	}

	fmt.Println("unreclaimed:", d.Unreclaimed() <= 2)
	// Output:
	// hello
	// world
	// answer
	// unreclaimed: true
}

// ExampleDomain_StartSampler runs the background observability sampler:
// one goroutine collecting the allocation-free Domain.Telemetry row every
// Interval, deriving EWMA rates and streaming the rows through the live
// scheme advisor. Production code would set SamplerConfig.OnRecommendation
// (or poll Rates) instead of sleeping.
func ExampleDomain_StartSampler() {
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		panic(err)
	}
	s := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})

	// Churn concurrently so the sampler's ticks see allocation deltas.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		st := wfe.NewStack[uint64](d)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := st.TryPush(i); err != nil {
					panic(err)
				}
				st.Pop()
			}
		}
	}()
	// Wait for what the output reports, not for a tick count: on a loaded
	// host the churn goroutine can miss any fixed number of ticks.
	for s.Ticks() < 5 || s.Rates().AllocsPerSec == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	rates := s.Rates()
	rec, ok := s.Recommendation()
	fmt.Println("sampled rows:", s.Ticks() >= 5)
	fmt.Println("alloc rate seen:", rates.AllocsPerSec > 0)
	fmt.Println("advice:", ok, rec.Scheme != "")
	s.Stop()
	fmt.Println("running after Stop:", s.Running())
	// Output:
	// sampled rows: true
	// alloc rate seen: true
	// advice: true true
	// running after Stop: false
}

// ExampleDomain_Switch swaps a live Domain's reclamation scheme without
// touching the structures built on it: Switch gates new guard
// acquisitions, waits for in-flight guards, drains the outgoing scheme's
// retired backlog, and installs the new scheme over the same arena.
// Values stored before the switch survive it — only the reclamation
// algorithm changed. SamplerConfig.AutoSwitch wires the streaming
// advisor to this call for hands-off operation.
func ExampleDomain_Switch() {
	d, err := wfe.NewDomain[string](wfe.Options{
		Scheme:   wfe.EBR, // cheap while readers never stall
		Capacity: 1024,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()

	s := wfe.NewStack[string](d)
	if err := s.TryPush("survives the swap"); err != nil {
		panic(err)
	}

	// The workload turned hostile for EBR (say the advisor reported a
	// stalled-reader signature): move to the wait-free scheme, live.
	if err := d.Switch(wfe.WFE); err != nil {
		panic(err)
	}
	fmt.Println("scheme:", d.Scheme())
	fmt.Println("switches:", d.Telemetry().SchemeSwitches)
	if v, ok := s.Pop(); ok {
		fmt.Println(v)
	}
	// Output:
	// scheme: WFE
	// switches: 1
	// survives the swap
}

// ExampleStack: the guardless stack methods are safe from any number of
// goroutines — far more than MaxGuards — because each operation leases a
// guard from the Domain's pool and parks when all are busy.
func ExampleStack() {
	d, _ := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12, MaxGuards: 2})
	s := wfe.NewStack[int](d)

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ { // 8x more goroutines than guards
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.TryPush(w); err != nil {
				panic(err)
			}
			s.Pop()
		}(w)
	}
	wg.Wait()

	fmt.Println(s.Len())
	// Output:
	// 0
}

// ExampleQueue: guardless FIFO use.
func ExampleQueue() {
	d, _ := wfe.NewDomain[string](wfe.Options{Capacity: 1 << 10})
	q := wfe.NewQueue[string](d)

	for _, v := range []string{"first", "second"} {
		if err := q.TryEnqueue(v); err != nil {
			panic(err)
		}
	}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

// ExampleWFQueue: the Kogan–Petrank wait-free queue — with the WFE scheme
// every operation, memory reclamation included, completes in a bounded
// number of steps. Values of any type travel through the queue's helping
// protocol in their own queue nodes, one block per value.
func ExampleWFQueue() {
	d, _ := wfe.NewDomain[string](wfe.Options{Capacity: 1 << 10})
	q := wfe.NewWFQueue[string](d)

	for _, v := range []string{"first", "second"} {
		if err := q.TryEnqueue(v); err != nil {
			panic(err)
		}
	}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

// ExampleTurnQueue: the CRTurn wait-free queue. Enqueuers and dequeuers
// announce their operations and helpers complete them in turn order, so
// every call finishes within one full turn regardless of scheduling.
func ExampleTurnQueue() {
	// The turn protocol registers every guard tid, and its claim word
	// holds at most 254 of them — size MaxGuards explicitly rather than
	// inheriting GOMAXPROCS on a huge machine.
	d, _ := wfe.NewDomain[string](wfe.Options{Capacity: 1 << 10, MaxGuards: 4})
	q := wfe.NewTurnQueue[string](d)

	for _, v := range []string{"first", "second"} {
		if err := q.TryEnqueue(v); err != nil {
			panic(err)
		}
	}
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

// ExampleHashMap: Michael's lock-free hash map. Guardless use from any
// number of goroutines.
func ExampleHashMap() {
	d, _ := wfe.NewDomain[string](wfe.Options{Capacity: 1 << 10})
	m := wfe.NewHashMap[string](d, 16)

	if err := m.TryPut(1, "one"); err != nil {
		panic(err)
	}
	if _, err := m.TryInsert(2, "two"); err != nil {
		panic(err)
	}
	if v, ok := m.Get(1); ok {
		fmt.Println(v)
	}
	m.Delete(1)
	_, ok := m.Get(1)
	fmt.Println("deleted:", !ok)
	// Output:
	// one
	// deleted: true
}

// ExampleHashMap_TryPut: a full arena surfaces as an error, never a
// panic. The arena here is sized far below the key range, so once every
// block backs a live node the emergency-reclamation pipeline has nothing
// to free and TryPut returns ErrArenaExhausted — the caller's
// backpressure signal to shed load or free something.
func ExampleHashMap_TryPut() {
	d, _ := wfe.NewDomain[uint64](wfe.Options{
		Scheme:       wfe.WFE,
		Capacity:     64,
		AllocRetries: 2, // trim the stall pipeline: this exhaustion is permanent
		AllocBackoff: time.Microsecond,
	})
	m := wfe.NewHashMap[uint64](d, 16)

	var filled uint64
	for k := uint64(0); ; k++ {
		if err := m.TryPut(k, k); err != nil {
			fmt.Println("exhausted:", errors.Is(err, wfe.ErrArenaExhausted))
			break
		}
		filled++
	}
	fmt.Println("filled to capacity:", filled > 0 && filled <= 64)
	// Output:
	// exhausted: true
	// filled to capacity: true
}

// ExampleHashMap_MultiGet: the batch entry points run a whole burst
// under one guard lease and — on the era, epoch and interval schemes —
// one protection span, with every unlink in the burst retired as a
// single batch. Results are positional: vals[i]/oks[i] answer keys[i],
// so duplicate keys in one burst are fine. Batches amortize overhead,
// not semantics — each item is the same linearizable operation the
// per-op method runs.
func ExampleHashMap_MultiGet() {
	d, _ := wfe.NewDomain[string](wfe.Options{Scheme: wfe.WFE, Capacity: 1 << 10})
	m := wfe.NewHashMap[string](d, 16)

	if _, err := m.TryMultiPut([]uint64{1, 2, 3}, []string{"one", "two", "three"}); err != nil {
		panic(err)
	}
	vals, oks := m.MultiGet([]uint64{2, 7, 1})
	for i, v := range vals {
		fmt.Println(v, oks[i])
	}
	oks = m.MultiDelete([]uint64{1, 2, 3, 4})
	fmt.Println("deleted:", oks)
	// Output:
	// two true
	//  false
	// one true
	// deleted: [true true true false]
}

// ExampleTree: the Natarajan–Mittal external binary search tree. Keys are
// ordered uint64s up to TreeKeyMax; values any T.
func ExampleTree() {
	d, _ := wfe.NewDomain[string](wfe.Options{Capacity: 1 << 10})
	t := wfe.NewTree[string](d)

	names := map[uint64]string{1: "one", 2: "two", 3: "three"}
	for _, k := range []uint64{2, 1, 3} {
		if _, err := t.TryInsert(k, names[k]); err != nil {
			panic(err)
		}
	}
	if v, ok := t.Get(2); ok {
		fmt.Println(v)
	}
	t.Delete(2)
	_, ok := t.Get(2)
	fmt.Println("deleted:", !ok)
	fmt.Println("len:", t.Len())
	// Output:
	// two
	// deleted: true
	// len: 2
}

// ExampleDomain_Pin hoists the guardless path's per-operation lease out of
// a loop: Pin once, run the batch through the Guarded variants, Unpin. The
// guard returns to the lease cache, not the pool, so the next Pin on this
// P is nearly free.
func ExampleDomain_Pin() {
	d, _ := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12})
	s := wfe.NewStack[int](d)

	g := d.Pin()
	for i := 0; i < 1000; i++ {
		if err := s.TryPushGuarded(g, i); err != nil {
			panic(err)
		}
		s.PopGuarded(g)
	}
	d.Unpin(g)

	t := d.Telemetry()
	fmt.Println("ops amortized one lease:", t.GuardCacheMisses <= 1)
	// Output:
	// ops amortized one lease: true
}

// ExampleDomain_AcquireGuard blocks until a guard frees instead of
// panicking (Guard) or failing (TryGuard) — the right acquisition path
// when goroutines outnumber MaxGuards and hold guards for long stretches.
func ExampleDomain_AcquireGuard() {
	d, _ := wfe.NewDomain[int](wfe.Options{Capacity: 256, MaxGuards: 1})
	s := wfe.NewStack[int](d)

	g, err := d.AcquireGuard(context.Background())
	if err != nil {
		panic(err) // only a done context errs
	}

	done := make(chan int)
	go func() {
		// Parks until the first goroutine releases its guard.
		g2, _ := d.AcquireGuard(context.Background())
		defer g2.Release()
		v, _ := s.PopGuarded(g2)
		done <- v
	}()

	if err := s.TryPushGuarded(g, 7); err != nil {
		panic(err)
	}
	g.Release() // hands off to the parked acquirer
	fmt.Println(<-done)
	// Output:
	// 7
}

// ExampleGuard builds a minimal custom structure — a single protected
// cell with copy-on-write updates — directly on Guard primitives,
// following the paper's operation shape: Begin, Protect, Retire, End.
func ExampleGuard() {
	d, _ := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	g := d.Guard()
	defer g.Release()

	var cell wfe.Atomic[int] // structure root holding a Ref[int]

	// Publish an initial value.
	g.Begin()
	cell.Store(g.Alloc(1))
	g.End()

	// Copy-on-write increment: protect, read, swap, retire.
	for {
		g.Begin()
		old := g.Protect(&cell, 0)
		next := g.Alloc(g.Value(old) + 41)
		if cell.CompareAndSwap(old, next) {
			g.Retire(old)
			g.End()
			break
		}
		g.Dealloc(next) // lost the race; next was never published
		g.End()
	}

	g.Begin()
	fmt.Println(g.Value(g.Protect(&cell, 0)))
	g.End()
	// Output:
	// 42
}
