// Package trace is the event layer of the observability runtime: per-tid
// single-writer lock-free ring buffers recording reclamation lifecycle
// events with nanosecond timestamps.
//
// Writers publish fixed-size records with a per-slot sequence lock, so a
// snapshot never stops a writer and a writer never waits for anything:
// when the ring wraps, the oldest records are overwritten. A disabled
// tracer costs one nil check plus one atomic load per event site, so the
// hooks in reclaim.Retirer, guardpool and internal/mem stay compiled in
// at all times.
//
// Snapshots export to Chrome trace-event JSON (schema "wfe-trace/v1");
// load the file at chrome://tracing or https://ui.perfetto.dev.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind enumerates the reclamation lifecycle events the tracer records.
type Kind uint8

const (
	// KindInvalid marks an unwritten or torn slot; never exported.
	KindInvalid Kind = iota
	// KindGuardAcquire: a pool guard was acquired. A is the source
	// (AcquireFreelist, AcquireHandoff); B is 1 when the acquisition
	// served a batch entry point (one lease per burst), else 0.
	KindGuardAcquire
	// KindGuardPark: an Acquire found no free tid in the guard table and
	// parked on the handoff channel. Emitted on the shared ring (no tid
	// held yet).
	KindGuardPark
	// KindGuardCancel: a parked Acquire gave up because its context was
	// cancelled. Emitted on the shared ring.
	KindGuardCancel
	// KindRetire: one block entered the retire ring. A is the block
	// handle.
	KindRetire
	// KindScanBegin: a cleanup scan started. A is the retire-ring
	// backlog entering the scan.
	KindScanBegin
	// KindScanEnd: the scan finished. A is the blocks examined, B the
	// blocks freed.
	KindScanEnd
	// KindEraAdvance: the global era/epoch clock advanced. A is the new
	// value.
	KindEraAdvance
	// KindSegSpill: a sealed local free segment was published to its
	// thread's mailbox. A is the segment length.
	KindSegSpill
	// KindSegRefill: an empty local cache claimed a segment from a
	// mailbox. A is the segment length.
	KindSegRefill
	// KindSchemeSwitch: the Domain swapped reclamation schemes. A is the
	// outgoing SchemeKind, B the incoming one. Emitted on the shared ring
	// (the switch runs with every guard released).
	KindSchemeSwitch
	// KindAllocStall: an allocation found the arena exhausted and entered
	// the Domain's emergency-reclamation pipeline. A is the arena's
	// allocated-block count at the stall, B its capacity.
	KindAllocStall
	// KindBatchBegin: a batched operation (MultiGet, TryPushAll, ...) opened
	// its batch context. A is the number of items the batch intends to
	// run (0 when open-ended, e.g. PopN draining early).
	KindBatchBegin
	// KindBatchEnd: the batch context closed. A is the items the batch
	// actually ran, B the retires it submitted as one burst.
	KindBatchEnd

	kindCount
)

// Guard-acquire sources (the A payload of KindGuardAcquire).
const (
	AcquireFreelist uint64 = iota // claimed free from the guard table by one CAS
	AcquireHandoff                // handed off directly by a releaser
)

var kindNames = [kindCount]string{
	KindInvalid:      "invalid",
	KindGuardAcquire: "guard-acquire",
	KindGuardPark:    "guard-park",
	KindGuardCancel:  "guard-cancel",
	KindRetire:       "retire",
	KindScanBegin:    "scan-begin",
	KindScanEnd:      "scan-end",
	KindEraAdvance:   "era-advance",
	KindSegSpill:     "seg-spill",
	KindSegRefill:    "seg-refill",
	KindSchemeSwitch: "scheme-switch",
	KindAllocStall:   "alloc-stall",
	KindBatchBegin:   "batch-begin",
	KindBatchEnd:     "batch-end",
}

func (k Kind) String() string {
	if k >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// SharedTid labels events emitted before the caller holds a tid (guard
// parks and cancels); they land on one shared multi-writer ring.
const SharedTid = -1

// DefaultDepth is the per-ring record capacity when the caller does not
// choose one. 1024 records x 5 words is 40 KiB per tid.
const DefaultDepth = 1024

// Record is one decoded trace event. TS is nanoseconds since the
// tracer's creation (monotonic).
type Record struct {
	TS   int64
	Tid  int
	Kind Kind
	A, B uint64
}

// slot is one ring entry: a per-slot sequence lock around four payload
// words. The writer stores seq=0, then the payload, then seq=index+1;
// a reader accepts the payload only if it observes seq==index+1 both
// before and after reading it.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Uint64
	meta atomic.Uint64 // kind<<32 | uint32(int32(tid))
	a    atomic.Uint64
	b    atomic.Uint64
}

// ring is one event ring. Per-tid rings are single-writer: only the
// owning tid stores head. The shared ring (SharedTid events) reserves
// slots with a fetch-add instead; colliding writers there would need a
// full ring of in-flight emits, which we accept as unreachable in
// practice — a torn shared-ring record is at worst one bogus park event
// in a diagnostic trace.
type ring struct {
	head  atomic.Uint64
	slots []slot
	_     [32]byte // keep adjacent ring heads off one cache line
}

// Tracer owns one ring per tid plus the shared ring. The zero-cost
// contract: Emit on a nil or disabled tracer is one predictable branch
// and at most one atomic load.
type Tracer struct {
	enabled atomic.Bool
	base    time.Time
	rings   []ring // rings[0..tids-1] per tid, rings[tids] shared
}

// New builds a tracer for tids writer threads with the given per-ring
// depth (rounded up to a power of two; <=0 means DefaultDepth). The
// tracer starts disabled.
func New(tids, depth int) *Tracer {
	if tids < 1 {
		tids = 1
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	d := 1
	for d < depth {
		d <<= 1
	}
	t := &Tracer{base: time.Now(), rings: make([]ring, tids+1)}
	for i := range t.rings {
		t.rings[i].slots = make([]slot, d)
	}
	return t
}

// SetEnabled turns event recording on or off. Safe to call at any time
// from any goroutine; in-flight emits that already passed the check
// complete normally.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit records one event. On a nil or disabled tracer this is the
// near-zero-cost path: one branch, one atomic load, no call into emit.
func (t *Tracer) Emit(tid int, k Kind, a, b uint64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.emit(tid, k, a, b)
}

func (t *Tracer) emit(tid int, k Kind, a, b uint64) {
	shared := tid < 0 || tid >= len(t.rings)-1
	var r *ring
	var h uint64
	if shared {
		r = &t.rings[len(t.rings)-1]
		h = r.head.Add(1) - 1
	} else {
		r = &t.rings[tid]
		h = r.head.Load()
	}
	s := &r.slots[h&uint64(len(r.slots)-1)]
	s.seq.Store(0)
	s.ts.Store(uint64(time.Since(t.base)))
	s.meta.Store(uint64(k)<<32 | uint64(uint32(int32(tid))))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(h + 1)
	if !shared {
		r.head.Store(h + 1)
	}
}

// Snapshot decodes every currently readable record without stopping
// writers, merged across rings and sorted by timestamp. Records being
// overwritten mid-read fail the sequence check and are dropped — the
// snapshot is a consistent sample, not an exact cut.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for ri := range t.rings {
		r := &t.rings[ri]
		depth := uint64(len(r.slots))
		h := r.head.Load()
		start := uint64(0)
		if h > depth {
			start = h - depth
		}
		for i := start; i < h; i++ {
			s := &r.slots[i&(depth-1)]
			if s.seq.Load() != i+1 {
				continue
			}
			ts := s.ts.Load()
			meta := s.meta.Load()
			a := s.a.Load()
			b := s.b.Load()
			if s.seq.Load() != i+1 {
				continue
			}
			k := Kind(meta >> 32)
			if k == KindInvalid || k >= kindCount {
				continue
			}
			out = append(out, Record{
				TS:   int64(ts),
				Tid:  int(int32(uint32(meta))),
				Kind: k,
				A:    a,
				B:    b,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
