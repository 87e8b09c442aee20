package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

const (
	numWorkers   = 2
	latencyEvery = 16   // every 16th call is timed into the window's histogram
	backlogEvery = 1024 // worker 0 reads Unreclaimed every 1,024 calls
	batchWidth   = 32
	inFlightMax  = 4096 // queue-handoff's producer yields above this

	// warmItems is the fixed work of a warm-up: the items worker 0
	// completes before the measured window. The footprint is read after
	// it. The high-water mark keeps climbing by rare jumps, so read after a
	// fixed time it rose with the host's speed and its ten-seed spread
	// reached 8-10%; read after this much work it spread about 1%. It is
	// also over 20 passes of map-stall's key range, which its pinned
	// backlog needs to plateau.
	warmItems = 1 << 18
)

// workload is one named input set. Every workload runs numWorkers
// closed-loop workers against a WFE domain set up afresh each round. The
// reasons for each are in README.md.
type workload struct {
	name     string
	capacity int // arena blocks
	keys     int // map key range; 0 for the queue
	prefill  int
	stall    bool // hold a stalled reader from set-up to the checks
	loop     func(w *worker)
}

var workloads = []*workload{
	{name: "map-churn", capacity: 1 << 18, keys: 100_000, prefill: 50_000, loop: plainLoop(churnOp)},
	{name: "map-read", capacity: 1 << 20, keys: 1 << 19, prefill: 1 << 19, loop: pinnedLoop(readOp)},
	{name: "map-batch", capacity: 1 << 18, keys: 100_000, prefill: 50_000, loop: plainLoop(batchOp)},
	{name: "queue-handoff", capacity: 1 << 17, prefill: 1024, loop: handoffLoop},
	{name: "map-stall", capacity: 1 << 16, keys: 10_000, prefill: 5_000, stall: true, loop: pinnedLoop(stallOp)},
}

func workloadByName(name string) (*workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return nil, false
}

// splitmix64 drives every random choice, so a seed fixes the inputs.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// streamSeed derives an independent stream for stream id of a run.
func streamSeed(seed uint64, id int) uint64 {
	s := seed ^ uint64(id+1)*0xD1B54A32D192ED03
	return splitmix64(&s)
}

// roundSeed gives each round's domain inputs of its own, so the rounds'
// readings are independent draws for the run's seed.
func roundSeed(seed uint64, round int) uint64 {
	return streamSeed(seed, numWorkers+round)
}

// prefillKeys is the shuffled prefill input: a random subset of the key
// range for the maps, sequence numbers 0..prefill-1 for the queue.
func (wl *workload) prefillKeys(seed uint64) []uint64 {
	ks := make([]uint64, max(wl.keys, wl.prefill))
	for i := range ks {
		ks[i] = uint64(i)
	}
	if wl.keys > 0 {
		rng := streamSeed(seed, -1)
		for i := len(ks) - 1; i > 0; i-- {
			j := int(splitmix64(&rng) % uint64(i+1))
			ks[i], ks[j] = ks[j], ks[i]
		}
	}
	return ks[:wl.prefill]
}

// instance is one set-up workload: its domain, its structure and the
// accounting the checks need, kept across every window of its round.
type instance struct {
	wl      *workload
	d       *domain
	m       hashMap
	q       queue
	st      *stall
	workers [numWorkers]*worker
	quota   uint64 // worker 0 ends the window at this many items

	// stop ends a window; it sits on its own cache line so the workers'
	// polling does not share one with anything they write.
	_    [64]byte
	stop atomic.Bool
	_    [64]byte
	// consumed is queue-handoff's dequeue count, published by the
	// consumer every 64 dequeues for the producer's in-flight bound.
	consumed atomic.Uint64
	_        [64]byte

	inserts, deletes, bad uint64 // over every window, warm-ups included
	backlogSum            float64
	backlogN              uint64
}

// setUp builds the domain and its structure, prefills it and, for
// map-stall, takes the stalled reader. It returns the instance and how
// long that took; building the input keys is not timed.
func setUp(wl *workload, seed uint64) (*instance, time.Duration, error) {
	keys := wl.prefillKeys(seed)
	// Collect dropped arenas and return their memory to the OS first, so
	// an arena that reuses it always pays the same page faults and
	// zeroing. Without this, whether the scavenger had released those
	// pages yet swung set-up times 4x.
	debug.FreeOSMemory()
	start := now()
	d, err := newDomain(wl.capacity, false)
	if err != nil {
		return nil, 0, err
	}
	in := &instance{wl: wl, d: d}
	g := pin(d)
	if wl.keys > 0 {
		in.m = newHashMap(d, wl.keys)
		for _, k := range keys {
			if _, err := in.m.tryInsertG(g, k); err != nil {
				unpin(d, g)
				return nil, 0, fmt.Errorf("%s prefill: %w", wl.name, err)
			}
		}
	} else {
		in.q = newQueue(d)
		for _, v := range keys {
			if err := in.q.tryEnqueueG(g, v); err != nil {
				unpin(d, g)
				return nil, 0, fmt.Errorf("%s prefill: %w", wl.name, err)
			}
		}
	}
	unpin(d, g)
	if wl.stall {
		in.st = holdStall(d)
	}
	took := time.Duration(now() - start)
	for i := range in.workers {
		in.workers[i] = &worker{in: in, id: i, rng: streamSeed(seed, i), keys: make([]uint64, batchWidth)}
	}
	if wl.keys == 0 {
		in.workers[0].seq = uint64(len(keys)) // the producer numbers on from the prefill
	}
	return in, took, nil
}

// teardown releases the stalled reader, if still held, and closes the
// domain.
func (in *instance) teardown() {
	if in.st != nil {
		in.st.release()
		in.st = nil
	}
	closeDomain(in.d)
}

// worker is one closed-loop client. The first group of fields persists
// across windows; the second is one window's results.
type worker struct {
	in   *instance
	id   int
	rng  uint64
	keys []uint64
	g    *guard  // the pinned guard of a pinnedLoop window
	tr   *tracer // rec in traced windows, nil otherwise
	rec  *tracer // the worker's span recorder, kept across traced windows
	seq  uint64  // queue: producer's next number, consumer's next minimum
	deq  uint64  // queue: the consumer's dequeues so far

	calls, items, failed, deallocs uint64
	inserts, deletes, bad          uint64
	backlogSum                     float64
	backlogN                       uint64
	hist                           histogram
}

func (w *worker) resetWindow(traced bool) {
	w.calls, w.items, w.failed, w.deallocs = 0, 0, 0, 0
	w.inserts, w.deletes, w.bad = 0, 0, 0
	w.backlogSum, w.backlogN = 0, 0
	w.hist.reset()
	w.tr = nil
	if traced {
		if w.rec == nil {
			w.rec = newTracer()
		}
		w.rec.self = [numSpans]int64{}
		w.tr = w.rec
	}
}

func (w *worker) key() uint64 {
	hi, _ := bits.Mul64(splitmix64(&w.rng), uint64(w.in.wl.keys))
	return hi
}

func (w *worker) coin() bool { return splitmix64(&w.rng)&1 == 0 }

func (w *worker) opID() uint64 { return uint64(w.id)<<48 | w.calls }

// noteErr counts exhaustion as a failed call. A Try* call has no other
// error to return, so any other error is a wrong result.
func (w *worker) noteErr(err error) {
	switch {
	case err == nil:
	case isExhausted(err):
		w.failed++
	default:
		w.bad++
	}
}

// run calls op until the window closes. op reports whether it made a
// public call; the queue's producer may yield instead.
func (w *worker) run(op func(*worker) bool) {
	stop := &w.in.stop
	for !stop.Load() {
		sample := w.tr == nil && w.calls%latencyEvery == 0
		var t0 int64
		if sample {
			t0 = now()
		}
		if !op(w) {
			continue
		}
		if sample {
			w.hist.add(now() - t0)
		}
		w.calls++
		if w.id == 0 {
			if w.calls%backlogEvery == 0 {
				w.backlogSum += float64(unreclaimed(w.in.d))
				w.backlogN++
			}
			if w.items >= w.in.quota {
				stop.Store(true)
			}
		}
	}
}

// plainLoop runs a workload whose calls each lease their own guard.
func plainLoop(op func(*worker) bool) func(*worker) {
	return func(w *worker) { w.run(op) }
}

// pinnedLoop pins one guard per worker per window and runs the Guarded
// calls on it; in a traced window the one pin is a lease span of its own.
func pinnedLoop(op func(*worker) bool) func(*worker) {
	return func(w *worker) {
		d := w.in.d
		if w.tr != nil {
			t := now()
			w.g = pin(d)
			w.tr.self[spanPin] += now() - t
		} else {
			w.g = pin(d)
		}
		w.run(op)
		unpin(d, w.g)
		w.g = nil
	}
}

// leased is a guardless call in a traced window, split the way the
// library runs it: Pin, the Guarded body, Unpin, each a span of one call.
func (w *worker) leased(body spanKind, call func(g *guard)) {
	t := w.tr.begin(w.opID())
	g := pin(w.in.d)
	t = w.tr.span(spanPin, t)
	call(g)
	t = w.tr.span(body, t)
	unpin(w.in.d, g)
	w.tr.span(spanUnpin, t)
	w.tr.end()
}

// map-churn: 50% TryInsert / 50% Delete, guardless.
func churnOp(w *worker) bool {
	m, k, insert := w.in.m, w.key(), w.coin()
	var ok bool
	var err error
	if w.tr == nil {
		if insert {
			ok, err = m.tryInsert(k)
		} else {
			ok = m.delete(k)
		}
	} else {
		w.leased(spanMapBody, func(g *guard) {
			if insert {
				ok, err = m.tryInsertG(g, k)
			} else {
				ok = m.deleteG(g, k)
			}
		})
	}
	w.noteErr(err)
	if ok && insert {
		w.inserts++
	} else if ok {
		w.deletes++
	}
	w.items++
	return true
}

// map-read: 90% GetGuarded / 10% TryPutGuarded on a pinned guard. Every
// key stays present (Put replaces), so every Get must hit its own key.
func readOp(w *worker) bool {
	m, k := w.in.m, w.key()
	put := splitmix64(&w.rng)%10 == 0
	var t int64
	if w.tr != nil {
		t = w.tr.begin(w.opID())
	}
	var v uint64
	var ok bool
	var err error
	if put {
		err = m.tryPutG(w.g, k)
	} else {
		v, ok = m.getG(w.g, k)
	}
	if w.tr != nil {
		w.tr.span(spanMapBody, t)
		w.tr.end()
	}
	w.noteErr(err)
	if !put && (!ok || v != k) {
		w.bad++
	}
	w.items++
	return true
}

// map-batch: 50% TryMultiPut / 50% MultiDelete of batchWidth keys each,
// guardless; items count keys, not calls.
func batchOp(w *worker) bool {
	m := w.in.m
	for i := range w.keys {
		w.keys[i] = w.key()
	}
	put := w.coin()
	n := batchWidth
	var err error
	if w.tr == nil {
		if put {
			n, err = m.tryMultiPut(w.keys)
		} else {
			m.multiDelete(w.keys)
		}
	} else {
		w.leased(spanBatchBody, func(g *guard) {
			if put {
				n, err = m.tryMultiPutG(g, w.keys)
			} else {
				m.multiDeleteG(g, w.keys)
			}
		})
	}
	w.noteErr(err)
	w.items += uint64(n)
	return true
}

// map-stall: 50% TryInsertGuarded / 50% DeleteGuarded on a pinned guard,
// while the stalled reader holds its reservation.
func stallOp(w *worker) bool {
	m, k, insert := w.in.m, w.key(), w.coin()
	var t int64
	if w.tr != nil {
		t = w.tr.begin(w.opID())
	}
	var err error
	if insert {
		_, err = m.tryInsertG(w.g, k)
	} else {
		m.deleteG(w.g, k)
	}
	if w.tr != nil {
		w.tr.span(spanMapBody, t)
		w.tr.end()
	}
	w.noteErr(err)
	w.items++
	return true
}

// queue-handoff: worker 0 only enqueues sequence numbers, worker 1 only
// dequeues them, so every block is allocated on one guard and freed on
// the other.
func handoffLoop(w *worker) {
	if w.id == 0 {
		w.run(produceOp)
	} else {
		w.run(consumeOp)
	}
}

func produceOp(w *worker) bool {
	in := w.in
	if w.seq-in.consumed.Load() > inFlightMax {
		runtime.Gosched()
		return false
	}
	var err error
	if w.tr == nil {
		err = in.q.tryEnqueue(w.seq)
	} else {
		w.leased(spanQueueBody, func(g *guard) { err = in.q.tryEnqueueG(g, w.seq) })
	}
	w.noteErr(err)
	if err == nil {
		w.seq++
		w.items++
	}
	return true
}

func consumeOp(w *worker) bool {
	in := w.in
	var v uint64
	var ok bool
	if w.tr == nil {
		v, ok = in.q.dequeue()
	} else {
		w.leased(spanQueueBody, func(g *guard) { v, ok = in.q.dequeueG(g) })
	}
	if ok {
		w.noteDequeue(v)
		w.items++
		w.deallocs++ // the value box is freed on dequeue, not scanned
	}
	return true
}

// noteDequeue checks the single consumer sees strictly increasing
// sequence numbers and publishes its progress to the producer.
func (w *worker) noteDequeue(v uint64) {
	if v < w.seq {
		w.bad++
	}
	w.seq = v + 1
	w.deq++
	if w.deq%64 == 0 {
		w.in.consumed.Store(w.deq)
	}
}

// windowResult is one window's work, summed over the workers.
type windowResult struct {
	wall                           time.Duration
	calls, items, failed, deallocs uint64
	backlogSum                     float64
	backlogN                       uint64
	hist                           histogram
	self                           [numSpans]int64
	before, after                  counters
}

// window runs the workers for d and returns what they did. With d = 0 it
// is the warm-up instead: it runs until worker 0 has completed warmItems
// items. The domain's counters are read before the workers start and
// after they join.
func (in *instance) window(d time.Duration, traced bool) *windowResult {
	r := &windowResult{before: readCounters(in.d)}
	in.stop.Store(false)
	in.quota = math.MaxUint64
	if d == 0 {
		in.quota = warmItems
	}
	var wg sync.WaitGroup
	start := now()
	for _, w := range in.workers {
		w.resetWindow(traced)
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.wl.loop(w)
		}()
	}
	if d > 0 {
		time.Sleep(d)
		in.stop.Store(true)
	}
	wg.Wait()
	r.wall = time.Duration(now() - start)
	r.after = readCounters(in.d)
	for _, w := range in.workers {
		r.calls += w.calls
		r.items += w.items
		r.failed += w.failed
		r.deallocs += w.deallocs
		r.backlogSum += w.backlogSum
		r.backlogN += w.backlogN
		r.hist.merge(&w.hist)
		if w.tr != nil {
			for k, v := range w.tr.self {
				r.self[k] += v
			}
		}
		in.inserts += w.inserts
		in.deletes += w.deletes
		in.bad += w.bad
	}
	return r
}

// measured notes a window whose results are reported, for the backlog
// plateau map-stall's check compares against.
func (in *instance) measured(r *windowResult) {
	in.backlogSum += r.backlogSum
	in.backlogN += r.backlogN
}

// check verifies the outputs once the last window has ended and the
// workers have stopped. It returns one message per failed check and
// leaves the domain drained: stall released, backlog scavenged.
func (in *instance) check() []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if in.bad > 0 {
		fail("workers saw %d wrong results", in.bad)
	}
	wl := in.wl
	if wl.keys > 0 {
		present := 0
		g := pin(in.d)
		for k := uint64(0); k < uint64(wl.keys); k++ {
			if v, ok := in.m.getG(g, k); ok {
				present++
				if v != k {
					fail("key %d holds %d", k, v)
				}
			}
		}
		unpin(in.d, g)
		if n := in.m.len(); n != present {
			fail("Len() = %d, but %d keys are present", n, present)
		}
		if wl.name == "map-churn" {
			if want := uint64(wl.prefill) + in.inserts - in.deletes; uint64(present) != want {
				fail("%d keys present, want prefill %d + inserts %d - deletes %d = %d",
					present, wl.prefill, in.inserts, in.deletes, want)
			}
		}
		if wl.name == "map-read" && present != wl.keys {
			fail("%d keys present, want all %d", present, wl.keys)
		}
	} else {
		prod, cons := in.workers[0], in.workers[1]
		cons.bad = 0
		for {
			v, ok := in.q.dequeue()
			if !ok {
				break
			}
			cons.noteDequeue(v)
		}
		if cons.bad > 0 {
			fail("drain saw %d out-of-order sequence numbers", cons.bad)
		}
		if cons.deq != prod.seq {
			fail("dequeued %d, want enqueued + prefill = %d", cons.deq, prod.seq)
		}
		if n := in.q.len(); n != 0 {
			fail("Len() = %d after the drain", n)
		}
	}
	if in.st != nil {
		in.st.release()
		in.st = nil
		plateau := in.backlogSum / float64(max(in.backlogN, 1))
		scavenge(in.d)
		if u := unreclaimed(in.d); float64(u) >= 0.01*plateau {
			fail("%d blocks unreclaimed after the stall ended, plateau was %.0f", u, plateau)
		}
	}
	if gap := censusGap(in.d); gap != 0 {
		fail("arena census is %d blocks short of Capacity", gap)
	}
	return errs
}
