// Package queuetest is the shared conformance suite for the MPMC queues:
// sequential FIFO semantics, empty-queue behaviour, and a concurrent
// conservation + per-producer-order stress run under every reclamation
// scheme with arena poisoning armed. The queues carry nodes; the suite
// keeps each node's value in a table of its own (see Payloads).
package queuetest

import (
	"sync"
	"testing"
	"time"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

// Queue is the operation set under test. A node Dequeue returns stays
// allocated until tid's next Dequeue.
type Queue interface {
	EnqueueNode(tid int, node mem.Handle)
	Dequeue(tid int) (mem.Handle, bool)
}

// Builder constructs the queue under test for maxThreads threads.
type Builder func(smr reclaim.Scheme, maxThreads int) Queue

// Payloads runs a Queue as a queue of uint64 values kept in a table
// indexed by node handle: Enqueue fills a node's entry before publishing
// the node, and Dequeue reads it only after Arena.CheckLive, so a node
// freed before its receiver read it panics in a Debug arena.
type Payloads struct {
	q    Queue
	smr  reclaim.Scheme
	vals []uint64
}

// WithPayloads wraps q, whose nodes come from smr's arena.
func WithPayloads(q Queue, smr reclaim.Scheme) *Payloads {
	return &Payloads{q, smr, make([]uint64, smr.Arena().Capacity()+1)}
}

// Enqueue appends v in a node allocated on tid's behalf.
func (p *Payloads) Enqueue(tid int, v uint64) {
	node := reclaim.MustAlloc(p.smr, tid)
	p.vals[node] = v
	p.q.EnqueueNode(tid, node)
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (p *Payloads) Dequeue(tid int) (uint64, bool) {
	node, ok := p.q.Dequeue(tid)
	if !ok {
		return 0, false
	}
	p.smr.Arena().CheckLive(node, "Dequeue")
	return p.vals[node], true
}

var schemesUnderTest = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "WFE-IBR-slow", "Leak"}

// start builds the queue under test over a fresh Debug arena and scheme.
func start(t testing.TB, build Builder, scheme string, threads, capacity int) *Payloads {
	t.Helper()
	a := mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: true})
	smr, err := schemes.New(scheme, a, reclaim.Config{MaxThreads: threads, EraFreq: 32, CleanupFreq: 8})
	if err != nil {
		t.Fatal(err)
	}
	return WithPayloads(build(smr, threads), smr)
}

// RunQueueSuite runs the full conformance suite.
func RunQueueSuite(t *testing.T, build Builder) {
	t.Run("SequentialFIFO", func(t *testing.T) { runSequential(t, build) })
	t.Run("EmptyBehaviour", func(t *testing.T) { runEmpty(t, build) })
	t.Run("AlternatingChurn", func(t *testing.T) { runChurn(t, build) })
	for _, name := range schemesUnderTest {
		t.Run("Stress/"+name, func(t *testing.T) { runStress(t, build, name) })
	}
	t.Run("RealTimeOrder", func(t *testing.T) { RunRealTimeOrderCheck(t, build) })
}

func runSequential(t *testing.T, build Builder) {
	q := start(t, build, "WFE", 1, 1<<12)
	for v := uint64(1); v <= 200; v++ {
		q.Enqueue(0, v)
	}
	for v := uint64(1); v <= 200; v++ {
		got, ok := q.Dequeue(0)
		if !ok || got != v {
			t.Fatalf("Dequeue = %d,%v; want %d", got, ok, v)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("drained queue returned a value")
	}
}

func runEmpty(t *testing.T, build Builder) {
	q := start(t, build, "WFE", 1, 1<<12)
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("empty queue returned a value")
	}
	q.Enqueue(0, 7)
	if v, ok := q.Dequeue(0); !ok || v != 7 {
		t.Fatalf("Dequeue = %d,%v; want 7", v, ok)
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue not empty after drain")
	}
	// Refill after emptiness.
	q.Enqueue(0, 8)
	q.Enqueue(0, 9)
	if v, _ := q.Dequeue(0); v != 8 {
		t.Fatal("FIFO broken after refill")
	}
	if v, _ := q.Dequeue(0); v != 9 {
		t.Fatal("FIFO broken after refill")
	}
}

// runChurn exercises node recycling: enqueue/dequeue pairs far beyond the
// arena capacity only fit if reclamation actually recycles nodes.
func runChurn(t *testing.T, build Builder) {
	q := start(t, build, "WFE", 1, 512)
	for i := uint64(0); i < 20000; i++ {
		q.Enqueue(0, i)
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("churn iteration %d: got %d,%v", i, v, ok)
		}
	}
	if inUse := q.smr.Arena().Stats().InUse; inUse > 400 {
		t.Fatalf("nodes not recycled: %d in use", inUse)
	}
}

// runStress checks conservation (every enqueued value dequeued at most
// once, none lost) and per-producer FIFO order under concurrency. Values
// encode producer and sequence so consumers can verify order.
func runStress(t *testing.T, build Builder, schemeName string) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		producers = 2
		consumers = 2
		perProd   = 8000
	)
	threads := producers + consumers
	capacity := 1 << 16
	if schemeName == "Leak" {
		capacity = producers*perProd + 2048
	}
	q := start(t, build, schemeName, threads, capacity)

	dequeued := make([][]uint64, consumers)
	var wg sync.WaitGroup
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer done.Done()
			for i := uint64(0); i < perProd; i++ {
				q.Enqueue(tid, uint64(tid)<<32|i)
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tid := producers + idx
			for {
				v, ok := q.Dequeue(tid)
				if ok {
					dequeued[idx] = append(dequeued[idx], v)
					continue
				}
				select {
				case <-stop:
					// Producers done and queue observed empty: one more
					// confirming pass, then exit.
					if v, ok := q.Dequeue(tid); ok {
						dequeued[idx] = append(dequeued[idx], v)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain any remainder.
	rest := []uint64{}
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		rest = append(rest, v)
	}

	seen := make(map[uint64]int)
	lastSeq := make([]map[int]uint64, consumers+1) // per consumer: producer → last seq
	for i := range lastSeq {
		lastSeq[i] = make(map[int]uint64)
	}
	account := func(consumer int, vs []uint64) {
		for _, v := range vs {
			seen[v]++
			prod := int(v >> 32)
			seq := v & 0xFFFFFFFF
			if last, ok := lastSeq[consumer][prod]; ok && seq <= last {
				t.Fatalf("%s: consumer %d saw producer %d out of order: %d after %d",
					schemeName, consumer, prod, seq, last)
			}
			lastSeq[consumer][prod] = seq
		}
	}
	for c := range dequeued {
		account(c, dequeued[c])
	}
	account(consumers, rest)

	if len(seen) != producers*perProd {
		t.Fatalf("%s: %d values accounted for, want %d", schemeName, len(seen), producers*perProd)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("%s: value %x dequeued %d times", schemeName, v, n)
		}
	}
}

// opStamp records the real-time window of one operation.
type opStamp struct {
	value      uint64
	start, end int64 // ns offsets
}

// RunRealTimeOrderCheck is a linearizability spot-check on real-time order:
// if enqueue(a) completed before enqueue(b) started, then a precedes b in
// the queue, so observing dequeue(b) complete before dequeue(a) starts is a
// linearizability violation. The pairwise check is a sound (necessary)
// condition that catches reordering bugs without full history search.
func RunRealTimeOrderCheck(t *testing.T, build Builder) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		producers = 2
		consumers = 2
		perProd   = 3000
	)
	threads := producers + consumers
	q := start(t, build, "WFE", threads, 1<<16)

	var (
		enqs = make([][]opStamp, producers)
		deqs = make([][]opStamp, consumers)
		wg   sync.WaitGroup
		done sync.WaitGroup
	)
	base := time.Now()
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer done.Done()
			for i := uint64(0); i < perProd; i++ {
				v := uint64(tid)<<32 | i
				s := time.Since(base).Nanoseconds()
				q.Enqueue(tid, v)
				enqs[tid] = append(enqs[tid], opStamp{v, s, time.Since(base).Nanoseconds()})
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tid := producers + idx
			for {
				s := time.Since(base).Nanoseconds()
				v, ok := q.Dequeue(tid)
				if ok {
					deqs[idx] = append(deqs[idx], opStamp{v, s, time.Since(base).Nanoseconds()})
					continue
				}
				select {
				case <-stop:
					if v, ok := q.Dequeue(tid); ok {
						deqs[idx] = append(deqs[idx], opStamp{v, s, time.Since(base).Nanoseconds()})
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	enqBy := make(map[uint64]opStamp)
	for _, es := range enqs {
		for _, e := range es {
			enqBy[e.value] = e
		}
	}
	deqBy := make(map[uint64]opStamp)
	for _, dss := range deqs {
		for _, d := range dss {
			deqBy[d.value] = d
		}
	}

	var all []opStamp
	for _, es := range enqs {
		all = append(all, es...)
	}
	violations := 0
	for i := range all {
		for j := range all {
			a, b := all[i], all[j]
			if a.end >= b.start {
				continue // enqueues overlap: no order imposed
			}
			da, oka := deqBy[a.value]
			db, okb := deqBy[b.value]
			if !oka || !okb {
				continue
			}
			if db.end < da.start {
				t.Errorf("real-time order violated: enq(%x) < enq(%x) but deq(%x) finished before deq(%x) started",
					a.value, b.value, b.value, a.value)
				violations++
				if violations > 5 {
					t.FailNow()
				}
			}
		}
	}
}
