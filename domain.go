package wfe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfe/internal/failpoint"
	"wfe/internal/guardpool"
	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
	"wfe/internal/trace"
)

// fpSwitchDrain fires at each iteration of the live scheme switch's
// drain wait: an injected sleep holds the switch inside the gated window
// (the chaos harness's alloc-fail-during-switch schedule), an injected
// error aborts the switch with ErrSwitchBusy.
var fpSwitchDrain = failpoint.New("switch-drain")

// SchemeKind selects a safe-memory-reclamation scheme for a Domain. The
// zero value is WFE, the paper's contribution; the others are the baselines
// of its evaluation plus the §2.4 wait-free 2GEIBR extension.
type SchemeKind int

const (
	// WFE is Wait-Free Eras (paper Figure 4): every reclamation operation
	// completes in a bounded number of steps.
	WFE SchemeKind = iota
	// HE is Hazard Eras (paper Figure 1), the lock-free scheme WFE extends.
	HE
	// HP is classical Hazard Pointers (Michael, TPDS 2004).
	HP
	// EBR is epoch-based reclamation: the fastest reads, but one stalled
	// guard stops all reclamation.
	EBR
	// TwoGEIBR is 2GEIBR interval-based reclamation (Wen et al., PPoPP 2018).
	TwoGEIBR
	// Leak never reclaims; it bounds the cost every real scheme pays. Size
	// Capacity for the whole workload's allocations.
	Leak
	// WFEIBR applies the WFE construction to 2GEIBR (paper §2.4), making the
	// interval scheme's protected reads wait-free too.
	WFEIBR
)

// String returns the scheme's benchmark-legend name.
func (k SchemeKind) String() string {
	switch k {
	case WFE:
		return "WFE"
	case HE:
		return "HE"
	case HP:
		return "HP"
	case EBR:
		return "EBR"
	case TwoGEIBR:
		return "2GEIBR"
	case Leak:
		return "Leak"
	case WFEIBR:
		return "WFE-IBR"
	}
	return fmt.Sprintf("SchemeKind(%d)", int(k))
}

// AllSchemes lists every SchemeKind in the paper's legend order, with the
// WFE-IBR extension last.
func AllSchemes() []SchemeKind {
	return []SchemeKind{WFE, HE, HP, EBR, TwoGEIBR, Leak, WFEIBR}
}

// ParseScheme maps a scheme's legend name ("WFE", "HE", "HP", "EBR",
// "2GEIBR", "Leak", "WFE-IBR") back to its SchemeKind — the inverse of
// String, for command-line flags.
func ParseScheme(name string) (SchemeKind, error) {
	for _, k := range AllSchemes() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("wfe: unknown scheme %q", name)
}

// NumWords is the number of 64-bit link/metadata words every allocated
// block carries, in addition to its typed value. Word indices passed to
// Guard.Load, Guard.Store, Guard.LoadMeta etc. must be < NumWords; whether
// a given word holds a Ref link or raw metadata is the data structure's
// convention.
const NumWords = mem.NumWords

// Options configures a Domain. The zero value is usable: WFE over a
// 2^20-block arena sized for GOMAXPROCS guards with the paper's §5 tuning
// defaults.
type Options struct {
	// Scheme selects the reclamation scheme (default WFE).
	Scheme SchemeKind
	// Capacity is the number of blocks in the arena (default 2^20, maximum
	// 2^24-2): the bound on how many blocks can be allocated at once, not
	// memory committed up front. The arena commits memory one chunk of
	// 1024 blocks at a time, as the allocation high-water first reaches
	// each chunk, so a generous Capacity costs only a small directory until
	// the workload uses it. Exhaustion is not instantly fatal: an
	// allocation that finds the arena full triggers emergency reclamation
	// scans and retries under backoff (see AllocRetries), and only a
	// pipeline that stays dry makes the structures' writes return
	// ErrArenaExhausted. Still size it for the workload, generously for
	// Leak, which never recycles.
	Capacity int
	// MaxGuards bounds the number of concurrently held Guards (default
	// runtime.GOMAXPROCS(0)).
	MaxGuards int
	// MaxSlots is the number of protection slots per guard (paper: max_hes;
	// default 8). Of the built-in structures, Stack needs 1, Queue and
	// TurnQueue 2, HashMap and WFQueue 3, and Tree 4; the default covers
	// them all.
	MaxSlots int
	// EraFreq is ν, the allocations per guard between era-clock increments
	// (default 150, the paper's §5 value). Lower values reclaim faster at
	// the cost of more era-clock traffic on every protected read.
	EraFreq int
	// CleanupFreq is the retirements between retire-list scans (default 30,
	// the paper's §5 value). Each scan gathers the reservation snapshot
	// once and judges every retired block against it (a linear sweep below
	// SortCutoff reservations, a sort plus one binary search per block at
	// or above it), so raising CleanupFreq amortises the gather over more
	// retirements (larger retired backlog, fewer snapshots) and lowering it
	// bounds the backlog tighter. Tune it here instead of forking the
	// internal scheme config.
	CleanupFreq int
	// SpillSize is the number of blocks the arena moves between a guard's
	// free cache and the guards' mailboxes in one segment transfer
	// (default 256). A guard's cache holds at most 2×SpillSize free
	// blocks: once SpillSize more blocks are freed on top of a full
	// segment, the segment is published to the guard's mailbox, where an
	// allocation miss on any guard claims it whole. Each transfer is O(1)
	// and wait-free, so SpillSize does not change its cost, only how
	// often it happens; Telemetry's ArenaSegPushes/ArenaSegPops show the
	// traffic. Smaller values hold fewer free blocks per guard and return
	// them to other guards sooner.
	SpillSize int
	// MaxAttempts bounds WFE's fast path before it requests helping
	// (default 16).
	MaxAttempts int
	// SortCutoff is the gathered-reservation count below which a cleanup
	// scan keeps the linear per-block sweep instead of sorting the
	// snapshot and binary-searching it (default 32, for every scheme).
	// Purely a cost choice — the two scan implementations decide
	// identically.
	SortCutoff int
	// ForceSlowPath makes WFE and WFEIBR take the helping slow path on
	// every protected read — the paper's §5 stress validation mode.
	ForceSlowPath bool
	// Debug arms the arena's use-after-free and double-free detection and
	// poisons freed blocks. Recommended in tests; costs ~2x.
	Debug bool
	// Trace allocates the Domain's lock-free event tracer (per-guard ring
	// buffers recording guard, retire, scan, era and arena-segment events)
	// and enables it from birth. Without it the trace façade reports
	// disabled and SetTraceEnabled(true) returns false — the rings are
	// only paid for when asked (about 40KiB per guard: each ring keeps the
	// most recent 1024 records, overwriting older ones in place, and
	// writers never block or allocate).
	Trace bool
	// AllocRetries is how many backoff-then-rescan rounds an allocation
	// that found the arena exhausted runs before giving up (default 16).
	// Every round ticks the scheme's era clock, scans the allocating
	// guard's own retire ring out of the CleanupFreq cadence and retries,
	// then does the same as each idle guard it can borrow; only after the
	// last round does the allocation surface ErrArenaExhausted
	// (Guard.Alloc alone panics with it instead). The rounds after the
	// first wait for the guards that operations in flight hold, which
	// cannot be borrowed. The retry budget bounds the worst-case stall, so
	// a Domain under pressure degrades to bounded latency, never to an
	// unbounded wait.
	AllocRetries int
	// AllocBackoff is the initial sleep between emergency-reclamation
	// rounds (default 50µs). It doubles per round, capped at 100× the
	// initial value, giving concurrent guards time to retire and scan
	// their own backlogs before the stalled allocation rescans.
	AllocBackoff time.Duration
}

// A Domain[T] owns an arena of T-valued blocks and the reclamation scheme
// that decides when retired blocks may be recycled. All blocks, Refs and
// Guards belong to exactly one Domain; mixing Domains is a programming
// error (caught in Debug mode when handles go out of range).
//
// A Domain is the public face of the paper's reclamation API. The built-in
// structures (Stack, Queue, WFQueue, TurnQueue, HashMap, Tree) lease
// guards from the Domain internally, so simple use never touches a Guard:
//
//	d, _ := wfe.NewDomain[string](wfe.Options{Scheme: wfe.WFE})
//	s := wfe.NewStack[string](d)
//	err := s.TryPush("hello") // ErrArenaExhausted only if the arena stays full
//
// Hot loops skip the per-operation lease by pinning a guard (Pin/Unpin) or
// holding an explicit one (Guard/AcquireGuard + Release) and calling the
// structures' Guarded method variants. See the "guard runtime" overview on
// Guard for how the acquisition paths relate.
type Domain[T any] struct {
	// smr is the live scheme, boxed with its kind behind one atomic
	// pointer so Switch can swap both together while samplers and
	// telemetry readers load them concurrently. Guard operations load the
	// box per call; they can never observe a stale scheme mid-operation
	// because Switch only swaps after every guard is released.
	smr   atomic.Pointer[schemeBox]
	arena *mem.Arena
	// cfg is the reclaim configuration NewDomain resolved, kept so Switch
	// can rebuild a scheme over the same arena. InitialEra is stamped per
	// swap from eraFloor.
	cfg reclaim.Config
	// vals is the typed value slab, indexed by block handle minus one. A
	// block's value is written once by Alloc before the block is published
	// and never mutated while the block is live, so protected readers need
	// no atomics; the arena's free hook zeroes the entry when the block
	// dies, so dead values do not linger as GC roots. The arena's grow
	// hook materialises its chunks (see NewDomain).
	vals mem.Slab[T]

	// guards is the tid table: one state word per tid, claimed by CAS. gs
	// holds each tid's one Guard for the Domain's life, so claiming a tid
	// claims its Guard and no acquisition allocates. hint is only a per-P
	// locality hint naming the guard last unpinned on that P: sync.Pool may
	// drop or strand entries at will, and a stale one costs a failed CAS.
	guards *guardpool.Pool
	gs     []Guard[T]
	hint   sync.Pool

	// tracer is nil unless Options.Trace asked for the rings; sampler
	// holds the Domain's background Sampler, swapped by StartSampler.
	tracer  *trace.Tracer
	sampler atomic.Pointer[Sampler]

	// switchMu serializes Switch calls; eraFloor (guarded by it) is the
	// monotone maximum over every era/epoch clock a scheme of this Domain
	// has ever reached — the InitialEra each freshly built scheme must
	// start at so era stamps that survived earlier schemes stay below the
	// new clock (see reclaim.Config.InitialEra). schemeSwitches counts
	// completed swaps for Telemetry.
	switchMu       sync.Mutex
	eraFloor       uint64
	schemeSwitches atomic.Uint64

	// Allocation-backpressure state: the resolved retry knobs and the
	// pressure gauges Telemetry reports. allocStalls counts allocations
	// that found the arena exhausted, emergencyScans the out-of-cadence
	// scans they triggered, lastResolve the nanoseconds the most recent
	// resolved stall spent inside the pipeline.
	allocRetries   int
	allocBackoff   time.Duration
	allocStalls    atomic.Uint64
	emergencyScans atomic.Uint64
	lastResolve    atomic.Int64
}

// schemeBox pairs a scheme with its kind so both swap atomically.
// slowPathBase is the slow-path count every earlier scheme of the Domain
// finished with; it rides in the box, not beside it, so a Telemetry read
// racing a swap sees the outgoing count either in the old scheme or in
// the new base, never in both or neither.
type schemeBox struct {
	s            reclaim.Scheme
	kind         SchemeKind
	slowPathBase uint64
}

// scheme returns the live scheme box.
func (d *Domain[T]) scheme() *schemeBox { return d.smr.Load() }

// NewDomain creates a Domain with blocks carrying a value of type T.
func NewDomain[T any](opts Options) (*Domain[T], error) {
	if opts.Capacity == 0 {
		opts.Capacity = 1 << 20
	}
	if opts.Capacity < 1 || uint64(opts.Capacity) > pack.HandleMask-1 {
		return nil, fmt.Errorf("wfe: Capacity %d out of range [1, %d]", opts.Capacity, pack.HandleMask-1)
	}
	if opts.MaxGuards == 0 {
		opts.MaxGuards = runtime.GOMAXPROCS(0)
	}
	if opts.MaxGuards < 0 {
		return nil, fmt.Errorf("wfe: MaxGuards %d must be positive", opts.MaxGuards)
	}
	for _, tune := range []struct {
		name string
		v    int
	}{
		{"MaxSlots", opts.MaxSlots},
		{"EraFreq", opts.EraFreq},
		{"CleanupFreq", opts.CleanupFreq},
		{"MaxAttempts", opts.MaxAttempts},
		{"SpillSize", opts.SpillSize},
		{"SortCutoff", opts.SortCutoff},
		{"AllocRetries", opts.AllocRetries},
	} {
		if tune.v < 0 {
			return nil, fmt.Errorf("wfe: %s %d must be non-negative (0 selects the default)", tune.name, tune.v)
		}
	}
	if opts.AllocBackoff < 0 {
		return nil, fmt.Errorf("wfe: AllocBackoff %v must be non-negative (0 selects the default)", opts.AllocBackoff)
	}
	if opts.AllocRetries == 0 {
		opts.AllocRetries = 16
	}
	if opts.AllocBackoff == 0 {
		opts.AllocBackoff = 50 * time.Microsecond
	}
	// The rings cost real memory (~40KiB per guard at the default depth),
	// so they exist only on request — benchmark sweeps construct hundreds
	// of Domains and must not pay for tracing they never enable.
	var tracer *trace.Tracer
	if opts.Trace {
		tracer = trace.New(opts.MaxGuards, 0)
		tracer.SetEnabled(true)
	}
	arena := mem.New(mem.Config{
		Capacity:   opts.Capacity,
		MaxThreads: opts.MaxGuards,
		SpillSize:  opts.SpillSize,
		Debug:      opts.Debug,
		Tracer:     tracer,
	})
	cfg := reclaim.Config{
		MaxThreads:    opts.MaxGuards,
		MaxHEs:        opts.MaxSlots,
		EraFreq:       opts.EraFreq,
		CleanupFreq:   opts.CleanupFreq,
		MaxAttempts:   opts.MaxAttempts,
		ForceSlowPath: opts.ForceSlowPath,
		SortCutoff:    opts.SortCutoff,
		Tracer:        tracer,
	}
	smr, err := schemes.New(opts.Scheme.String(), arena, cfg)
	if err != nil {
		return nil, fmt.Errorf("wfe: %v", err)
	}
	d := &Domain[T]{
		arena:        arena,
		cfg:          cfg,
		vals:         mem.NewSlab[T](opts.Capacity),
		guards:       guardpool.New(opts.MaxGuards),
		gs:           make([]Guard[T], opts.MaxGuards),
		tracer:       tracer,
		allocRetries: opts.AllocRetries,
		allocBackoff: opts.AllocBackoff,
	}
	for tid := range d.gs {
		d.gs[tid].tid = tid
	}
	d.smr.Store(&schemeBox{s: smr, kind: opts.Scheme})
	d.guards.SetTracer(tracer)
	// The value chunk of a block must exist before the arena hands the
	// block out, on every allocation path: the wait-free queues' nodes
	// never pass initBlock, yet the free hook below zeroes their values.
	arena.SetGrowHook(d.vals.Grow)
	// Drop a block's value the moment it is recycled: no reader can hold a
	// freed block (that is the reclamation invariant), and without this a
	// drained structure would pin up to Capacity dead payloads for the GC.
	arena.SetFreeHook(func(h mem.Handle) {
		var zero T
		*d.vals.At(h - 1) = zero
	})
	return d, nil
}

// Scheme returns the Domain's current reclamation scheme kind. Under live
// switching it is a moving target; each call reads the scheme atomically.
func (d *Domain[T]) Scheme() SchemeKind { return d.scheme().kind }

// Guard acquires one of the Domain's MaxGuards guard handles. It panics
// when all are held: a panic here means a sizing bug — more long-lived
// explicit guards than MaxGuards — not a runtime condition. Use
// AcquireGuard to block until one frees, or TryGuard to poll.
//
// While a live scheme switch has acquisition gated, Guard blocks until the
// switch completes instead of panicking — the guards are all free then,
// just briefly withheld, which is the opposite of a sizing bug. The panic
// fires only when the pool was provably unpaused for the whole failed
// attempt: the pause sequence number is read before and after, and any
// switch whose gate could have caused the failure changes it.
func (d *Domain[T]) Guard() *Guard[T] {
	for {
		seq := d.guards.PauseSeq()
		if seq&1 == 1 {
			// A switch is in flight; park until it resumes, then rejudge
			// from scratch — never commit to an unbounded blocking acquire
			// here, or a genuine sizing bug that raced a switch would hang
			// silently instead of panicking with the diagnostic.
			d.guards.AwaitResume()
			continue
		}
		if g, ok := d.TryGuard(); ok {
			return g
		}
		if d.guards.PauseSeq() == seq {
			// No pause epoch began or ended across the failed try, so the
			// gate cannot be what failed it: all guards really are held.
			panic("wfe: all guards in use; raise Options.MaxGuards, Release an idle guard, or block with AcquireGuard")
		}
		// A switch overlapped the try; the failure may have been its gate,
		// not exhaustion. Loop and rejudge.
	}
}

// TryGuard acquires a guard without blocking, reporting false when all are
// held. It is one pass over the Domain's guard table, claiming the lowest
// free tid with one CAS; a guard a lease returned with Unpin is free at
// once and counts. It allocates nothing: each tid has one Guard for the
// Domain's life.
func (d *Domain[T]) TryGuard() (*Guard[T], bool) {
	tid, ok := d.guards.TryAcquire()
	if !ok {
		return nil, false
	}
	return d.claimed(tid), true
}

// AcquireGuard acquires a guard, parking the calling goroutine until one is
// released (with Release or Unpin) when all MaxGuards are held. It returns
// an error only when ctx is done first. This is the acquisition path for
// workloads where goroutines outnumber guards and churn — the panicking
// Guard is for fixed worker sets sized at configuration time. Like
// TryGuard it allocates nothing.
func (d *Domain[T]) AcquireGuard(ctx context.Context) (*Guard[T], error) {
	tid, err := d.guards.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	return d.claimed(tid), nil
}

// claimed returns the Guard of a tid the caller has just claimed. Every
// claim binds the guard to the Domain again, since Release unbinds it.
func (d *Domain[T]) claimed(tid int) *Guard[T] {
	g := &d.gs[tid]
	g.d = d
	return g
}

// Pin leases a guard to the calling goroutine until Unpin: the cheap way
// to hold a guard across a batch of operations. It is what every guardless
// structure method uses per operation, and every guardless batch per
// burst; pinning hoists that lease out of a hot loop. The fast path claims
// the guard last unpinned on this P (one CAS on that guard's own state
// word, no shared counter); a miss scans the guard table like TryGuard,
// then parks like AcquireGuard if the Domain is exhausted.
//
// A pinned guard is a plain *Guard: use it with the Guarded method
// variants, then return it with Unpin. Pin never fails — callers that need
// a timeout use AcquireGuard.
func (d *Domain[T]) Pin() *Guard[T] {
	if v := d.hint.Get(); v != nil {
		if tid := v.(*Guard[T]).tid; d.guards.TryClaim(tid) {
			return d.claimed(tid).leased(false)
		}
	}
	if tid, ok := d.guards.TryAcquire(); ok {
		return d.claimed(tid).leased(false)
	}
	tid, _ := d.guards.Acquire(context.Background()) // never errs: ctx has no deadline
	return d.claimed(tid).leased(true)
}

// leased counts a lease of a just-claimed guard: a hit when it was
// claimed without parking and its last holder returned it with Unpin, a
// miss otherwise. Keying on the last return, not on the hint, counts a
// guard the hint lost (sync.Pool drops entries at will) but the table
// scan found idle as the hit it is.
func (g *Guard[T]) leased(parked bool) *Guard[T] {
	if g.unpinned && !parked {
		bump(&g.leaseHits)
	} else {
		bump(&g.leaseMisses)
	}
	return g
}

// Unpin ends a lease: it drops any protections the guard still holds (an
// implicit End, so an idle guard can never block reclamation), frees the
// guard's tid in the guard table — handing it straight to a parked
// acquirer if one waits — and names the guard as this P's hint for the
// next Pin. The guard must not be used after Unpin.
func (d *Domain[T]) Unpin(g *Guard[T]) {
	g.End()
	d.unpin(g)
}

// unpin is Unpin without the protection drop — the internal path for the
// guardless wrappers, whose Guarded operation just ended with End.
func (d *Domain[T]) unpin(g *Guard[T]) {
	g.unpinned = true
	d.guards.Release(g.tid)
	d.hint.Put(g)
}

// FlushGuardCache does nothing and returns 0, the number of guards it
// could not recover: an unpinned guard is free in the guard table at
// once, so no idle guard is ever held back. It remains for existing
// callers and will be removed.
func (d *Domain[T]) FlushGuardCache() int { return 0 }

// Unreclaimed reports the number of retired-but-not-yet-recycled blocks,
// the paper's reclamation-speed metric. Approximate under concurrency.
func (d *Domain[T]) Unreclaimed() int { return d.scheme().s.Unreclaimed() }

// ErrArenaExhausted is returned by the structures' writes (the Try*
// methods) and Guard.TryAlloc when an allocation found the arena full
// and the emergency-reclamation pipeline — out-of-cadence scans of the
// allocating guard's retire ring and of every idle guard's ring it can
// borrow, retried under capped exponential backoff
// (Options.AllocRetries / AllocBackoff) — could not free a block.
// Guard.Alloc panics with an error wrapping it instead. It is a
// backpressure verdict, not a corruption: the Domain stays fully usable,
// and the same allocation may succeed once the guards in use retire and
// scan their own backlogs.
var ErrArenaExhausted = errors.New("wfe: arena exhausted after emergency reclamation")

// must turns an allocation error into a panic for the two allocations
// that have no error to return it through: Guard.Alloc, and the sentinel
// the wait-free queue constructors allocate. The panic value wraps
// ErrArenaExhausted, so a recover can errors.Is it.
func (d *Domain[T]) must(err error) {
	if err != nil {
		panic(fmt.Errorf("%w (capacity %d); size the arena for the workload or use Guard.TryAlloc", ErrArenaExhausted, d.arena.Capacity()))
	}
}

// allocHandle is the Domain's allocation front door: the scheme's
// TryAlloc on the fast path, the emergency-reclamation pipeline on a
// miss. Callers must own tid (hold its guard).
func (d *Domain[T]) allocHandle(tid int) (mem.Handle, error) {
	if h, ok := d.scheme().s.TryAlloc(tid); ok {
		return h, nil
	}
	return d.allocSlow(tid)
}

// allocSlow resolves an exhausted-arena allocation by forcing the
// reclamation the cadence has not run yet. Each round rescues tid itself
// first (see rescue), then borrows every idle tid in turn: it claims the
// tid in the guard table, rescues as that tid, and releases it. Retire
// rings and free caches are single-writer, and their ownership follows
// the tid, so a borrow breaks no single-writer rule; it holds the tid for
// one scan. Rounds repeat, sleeping a doubling backoff between them,
// because tids held by operations in flight cannot be borrowed: rescue
// from their rings is arranged indirectly, by registering as an arena
// waiter, which makes every concurrent retire run its own out-of-cadence
// scan and every free publish its cache's sealed segment at once to its
// guard's mailbox, where this tid's retry can claim it.
func (d *Domain[T]) allocSlow(tid int) (mem.Handle, error) {
	d.allocStalls.Add(1)
	st := d.arena.Stats()
	d.tracer.Emit(tid, trace.KindAllocStall, st.InUse, uint64(d.arena.Capacity()))
	box := d.scheme()
	if !box.s.Retirer().Judged() {
		// The leak baseline has no judge: a scan can never free anything,
		// so retrying would only delay the inevitable verdict.
		return 0, ErrArenaExhausted
	}
	d.arena.AddWaiter(1)
	defer d.arena.AddWaiter(-1)
	start := time.Now()
	backoff := d.allocBackoff
	ceil := 100 * d.allocBackoff
	for round := 0; ; round++ {
		h, ok := d.rescue(box, tid)
		for other := 0; !ok && other < len(d.gs); other++ {
			if other != tid && d.guards.TryClaim(other) {
				h, ok = d.rescue(box, other)
				d.guards.Release(other)
			}
		}
		if ok {
			d.lastResolve.Store(int64(time.Since(start)))
			return h, nil
		}
		if round >= d.allocRetries {
			return 0, ErrArenaExhausted
		}
		time.Sleep(backoff)
		if backoff < ceil {
			backoff *= 2
			if backoff > ceil {
				backoff = ceil
			}
		}
	}
}

// rescue is one emergency step as tid, which the caller holds: tick the
// scheme's era clock (so the scan judges against a clock ahead of every
// stamped retirement), scan tid's retire ring out of the CleanupFreq
// cadence, and allocate from tid's free cache.
func (d *Domain[T]) rescue(box *schemeBox, tid int) (mem.Handle, bool) {
	if c, ok := box.s.(reclaim.ClockAdvancer); ok {
		c.AdvanceClock(tid)
	}
	box.s.Retirer().Scan(tid)
	d.emergencyScans.Add(1)
	return box.s.TryAlloc(tid)
}

// Scavenge runs one judged cleanup scan over every tid's retire ring,
// out of cadence, after ticking the scheme's era clock past any retired
// block's lifespan — the strongest reclamation pass available without
// violating the schemes' safety rules. It returns the number of blocks
// recycled.
//
// Call it only on a quiescent Domain (no operations in flight, no
// protections outstanding): retire rings are single-writer structures,
// and Scavenge walks all of them from the calling goroutine. It is how a
// drained Domain releases the backlog a lazy CleanupFreq would otherwise
// hold until each tid retires again; the allocation pipeline's emergency
// scans are the concurrent-safe sibling, limited to the stalled tid's own
// ring and the rings of the idle tids it borrows. The Leak baseline has
// no judge to scan with, so Scavenge reports zero there.
func (d *Domain[T]) Scavenge() int {
	box := d.scheme()
	rt := box.s.Retirer()
	if !rt.Judged() {
		return 0
	}
	if c, ok := box.s.(reclaim.ClockAdvancer); ok {
		// EBR-class grace periods span two clock ticks; three advances
		// put every quiescently-retired block beyond any of them. The
		// reservation-interval schemes need no help — with no guards
		// active nothing is pinned.
		for i := 0; i < 3; i++ {
			c.AdvanceClock(0)
		}
	}
	before := d.arena.Stats().Frees
	for tid := 0; tid < d.guards.Cap(); tid++ {
		rt.Scan(tid)
	}
	return int(d.arena.Stats().Frees - before)
}

// Telemetry is the one telemetry row a Domain reports: a point-in-time
// census of its reclamation machinery, arena and guard runtime. Every
// reader takes the same row — the background Sampler's history and
// advisor feed, the chaos harness's per-tick trajectory, the metrics
// export and the monitors. Counters are cumulative over the Domain's
// lifetime and carry across Switch, so the deltas between rows taken at a
// fixed tick are the rates of a time series.
type Telemetry struct {
	Scheme      string // scheme legend name
	Era         uint64 // global era/epoch clock (0 for the clock-less HP and Leak)
	SlowPaths   uint64 // protected reads that requested helping (WFE/WFEIBR), over every scheme run
	MaxSteps    uint64 // worst protect-loop iteration count seen by any guard
	P99Steps    uint64 // p99 protect-loop iteration count (every protecting scheme; sample quiescently)
	Unreclaimed int    // retired blocks not yet recycled
	Allocs      uint64 // total block allocations
	Frees       uint64 // total blocks recycled
	InUse       uint64 // Allocs - Frees
	Capacity    int    // arena size in blocks

	// Cleanup-scan telemetry, uniform across every scheme via the shared
	// retire-side runtime: how many retire-list scans ran, how many
	// retired blocks they examined, and the nanoseconds they spent.
	// Sample quiescently for exact values. The Leak baseline never scans,
	// so its three counters stay zero.
	ScanScans  uint64
	ScanBlocks uint64
	ScanNanos  uint64

	// Arena fast-path counters. SegPushes counts segments published to
	// the guards' mailboxes and SegPops segments an allocation miss
	// claimed from them, each moving Options.SpillSize blocks;
	// BumpHighwater is how many distinct blocks the bump allocator has
	// ever handed out — the workload's true footprint, where InUse only
	// shows the instantaneous one.
	ArenaSegPushes     uint64
	ArenaSegPops       uint64
	ArenaBumpHighwater uint64

	// Guard-runtime counters. A healthy guardless workload shows
	// GuardCacheHits ≫ GuardCacheMisses and GuardParks near zero; parks
	// climbing means MaxGuards is undersized for the goroutine count. The
	// lease and batch counters live on each guard, written only by its
	// holder, and are summed over the guard table on read.
	MaxGuards        int    // configured guard count
	GuardsFree       int    // tids free in the guard table, unpinned guards included (quiescently exact)
	GuardAcquires    uint64 // guards a table scan or a handoff gave out (TryGuard, AcquireGuard, leases whose P hint failed)
	GuardParks       uint64 // times an acquirer parked waiting for a free guard
	GuardCacheHits   uint64 // leases (Pin, guardless ops and batches) that claimed, without parking, a guard last returned by Unpin
	GuardCacheMisses uint64 // every other lease: parked, or the guard's last return was Release or none

	// Batched-operation counters (MultiGet, TryPushAll, DequeueN, ...):
	// BatchOps counts completed batches, BatchedItems the operations they
	// carried (BatchedItems/BatchOps is the realized mean batch size). A
	// guardless batch takes one lease per burst, counted in
	// GuardCacheHits/Misses like any other.
	BatchOps     uint64
	BatchedItems uint64

	// SchemeSwitches counts live scheme swaps completed by Domain.Switch
	// over the Domain's lifetime.
	SchemeSwitches uint64

	// Allocation-backpressure counters: allocations that found the arena
	// exhausted, the out-of-cadence emergency scans they forced, and how
	// long the most recent resolved stall spent inside the pipeline. Zero
	// on a Domain that never ran out of blocks; InUse/Capacity is the
	// occupancy they answer.
	AllocStalls    uint64
	EmergencyScans uint64
	LastResolve    time.Duration
}

// Telemetry samples the Domain's counters. The snapshot is approximate
// under concurrency, which is fine for its monitoring purpose. The
// retire-side counters (steps, scans, backlog) read through the scheme's
// shared runtime, one path for all seven schemes. It allocates nothing,
// so a recorder can take a row every scheduler tick.
func (d *Domain[T]) Telemetry() Telemetry {
	st := d.arena.Stats()
	gp := d.guards.Stats()
	box := d.scheme()
	probe := box.s.Retirer().Probe()
	gc := d.guardCounts()
	return Telemetry{
		Scheme:      box.kind.String(),
		Era:         clock(box.s),
		SlowPaths:   box.slowPathBase + slowPaths(box.s),
		MaxSteps:    probe.MaxSteps,
		P99Steps:    probe.P99Steps,
		Unreclaimed: probe.Unreclaimed,
		Allocs:      st.Allocs,
		Frees:       st.Frees,
		InUse:       st.InUse,
		Capacity:    d.arena.Capacity(),

		ScanScans:  probe.Scans.Scans,
		ScanBlocks: probe.Scans.Blocks,
		ScanNanos:  probe.Scans.Nanos,

		ArenaSegPushes:     st.SegPushes,
		ArenaSegPops:       st.SegPops,
		ArenaBumpHighwater: st.Bumped,

		MaxGuards:        d.guards.Cap(),
		GuardsFree:       d.guards.Free(),
		GuardAcquires:    gp.Acquires,
		GuardParks:       gp.Parks,
		GuardCacheHits:   gc.hits,
		GuardCacheMisses: gc.misses,

		BatchOps:     gc.batchOps,
		BatchedItems: gc.batchItems,

		SchemeSwitches: d.schemeSwitches.Load(),

		AllocStalls:    d.allocStalls.Load(),
		EmergencyScans: d.emergencyScans.Load(),
		LastResolve:    time.Duration(d.lastResolve.Load()),
	}
}

// clock reads a scheme's global clock: the era of the era and interval
// schemes, EBR's epoch, and 0 for the clock-less HP and Leak.
func clock(s reclaim.Scheme) uint64 {
	switch c := s.(type) {
	case interface{ Era() uint64 }:
		return c.Era()
	case interface{ Epoch() uint64 }:
		return c.Epoch()
	}
	return 0
}

// slowPaths reads a scheme's helping slow-path count (WFE and WFE-IBR;
// 0 for the other schemes).
func slowPaths(s reclaim.Scheme) uint64 {
	if c, ok := s.(interface{ SlowPaths() uint64 }); ok {
		return c.SlowPaths()
	}
	return 0
}

// guardCounts is the per-guard lease and batch accounting summed over the
// guard table.
type guardCounts struct {
	hits, misses, batchOps, batchItems uint64
}

// guardCounts sums every guard's counters. Each guard keeps its own for
// the Domain's life, so nothing is folded or lost when a guard changes
// hands.
func (d *Domain[T]) guardCounts() (c guardCounts) {
	for i := range d.gs {
		g := &d.gs[i]
		c.hits += g.leaseHits.Load()
		c.misses += g.leaseMisses.Load()
		c.batchOps += g.batchOps.Load()
		c.batchItems += g.batchItems.Load()
	}
	return c
}

// ArenaCensus is a quiescent-only accounting snapshot of the Domain's
// block arena: every block is in exactly one of the four places, so
// Cached+Global+Live+BumpFree always equals Capacity on a quiescent
// Domain. quiesce.Check and the arena invariant tests assert this; a
// violation means a segment transfer lost or duplicated a block.
type ArenaCensus struct {
	Cached   int // blocks in per-guard free caches
	Global   int // blocks in published segments, which any guard can claim
	Segments int // published segments in the guards' mailboxes
	Live     int // allocated blocks (live or retired)
	BumpFree int // blocks the bump allocator has never handed out
	Capacity int
}

// ArenaCensus walks the arena's free lists and block states. Call it only
// with no operations in flight (after a drain, before teardown): the
// walks take no locks.
func (d *Domain[T]) ArenaCensus() ArenaCensus {
	c := d.arena.Census()
	return ArenaCensus{
		Cached:   c.Cached,
		Global:   c.Global,
		Segments: c.Segments,
		Live:     c.Live,
		BumpFree: c.BumpFree,
		Capacity: c.Capacity,
	}
}

// A TraceEvent is one decoded record from the Domain's event tracer: what
// happened (Kind), on which guard slot (Guard, -1 for events with no owner
// such as parks), when (TS, nanoseconds since the Domain was created), and
// two kind-specific payload words. For scan-begin A is the retired backlog;
// for scan-end A is blocks examined and B blocks freed; for era-advance A
// is the new era; for segment spill/refill A is the batch size; for retire
// A is the block handle; for guard-acquire A distinguishes a claim from
// the guard table (0) from a direct handoff (1).
type TraceEvent struct {
	TS    int64  `json:"ts_ns"`
	Guard int    `json:"guard"`
	Kind  string `json:"kind"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
}

// TraceEnabled reports whether the Domain's event tracer exists and is
// currently recording.
func (d *Domain[T]) TraceEnabled() bool { return d.tracer.Enabled() }

// SetTraceEnabled pauses or resumes event recording, reporting whether the
// Domain has a tracer at all. It returns false — and does nothing — when
// the Domain was built without Options.Trace: the rings are allocated at
// construction or never.
func (d *Domain[T]) SetTraceEnabled(on bool) bool {
	if d.tracer == nil {
		return false
	}
	d.tracer.SetEnabled(on)
	return true
}

// TraceEvents snapshots the tracer's ring buffers without stopping
// writers, returning the retained events in timestamp order (nil without
// Options.Trace). Each ring keeps the most recent 1024 records per guard;
// older events have been overwritten.
func (d *Domain[T]) TraceEvents() []TraceEvent {
	if d.tracer == nil {
		return nil
	}
	recs := d.tracer.Snapshot()
	out := make([]TraceEvent, len(recs))
	for i, r := range recs {
		out[i] = TraceEvent{TS: r.TS, Guard: r.Tid, Kind: r.Kind.String(), A: r.A, B: r.B}
	}
	return out
}

// WriteTrace snapshots the tracer and writes the events as Chrome
// trace-event JSON (schema "wfe-trace/v1") — load the file at
// chrome://tracing or https://ui.perfetto.dev. Without Options.Trace it
// writes an empty trace.
func (d *Domain[T]) WriteTrace(w io.Writer) error {
	var recs []trace.Record
	if d.tracer != nil {
		recs = d.tracer.Snapshot()
	}
	return trace.WriteChrome(w, recs)
}

// StartSampler starts the Domain's background Sampler, the streaming tier
// of its observability: a goroutine collecting Telemetry rows at
// cfg.Interval into a bounded history, deriving rate EWMAs, and keeping a live
// advisor recommendation current (see Sampler). At most one sampler runs
// per Domain: while one is running, StartSampler returns it untouched
// (idempotent); after Stop, a new call starts a fresh one. Stop the
// sampler before letting the Domain go out of scope or its goroutine —
// and the Domain it samples — stay live forever.
func (d *Domain[T]) StartSampler(cfg SamplerConfig) *Sampler {
	for {
		if cur := d.sampler.Load(); cur != nil && cur.Running() {
			return cur
		} else {
			s := newSampler(d.Telemetry, cfg)
			if cfg.AutoSwitch {
				// Wired here, not in newSampler: the sampler is generic
				// over its sample source, and only the Domain knows how to
				// switch schemes. Installed before run, so the goroutine
				// never observes them half-set.
				s.switchTo = func(name string) error {
					kind, err := ParseScheme(name)
					if err != nil {
						return err
					}
					// Bounded drain: a sampler-triggered switch must never
					// gate the Domain indefinitely. Programs that hold
					// explicit guards across sampler ticks (a legitimate
					// fixed-worker pattern) would otherwise wedge every
					// acquirer — and Close, which waits for the sampler
					// goroutine stuck inside Switch.
					return d.SwitchWithin(kind, autoSwitchDrainBound)
				}
				s.current = func() string { return d.Scheme().String() }
			}
			if d.sampler.CompareAndSwap(cur, s) {
				s.run()
				return s
			}
			// Lost the race; the winner's sampler (or a newly observed
			// running one) is picked up on the next iteration. Ours never
			// started: nothing to stop.
		}
	}
}

// Sampler returns the Domain's most recently started Sampler, or nil if
// StartSampler never ran. The returned sampler may already be stopped;
// check Running.
func (d *Domain[T]) Sampler() *Sampler { return d.sampler.Load() }

// Close stops the Domain's background machinery — today that is the
// Sampler StartSampler started. It is idempotent and safe to defer at
// construction:
//
//	d, _ := wfe.NewDomain[int](wfe.Options{})
//	defer d.Close()
//	d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
//
// Close does not wait for outstanding Guards; releasing those is still the
// caller's job. A closed Domain remains usable for data-structure
// operations (only the sampler is gone), but callers should treat Close as
// teardown.
func (d *Domain[T]) Close() error {
	if s := d.sampler.Load(); s != nil {
		s.Stop()
	}
	return nil
}

// Switch replaces the Domain's reclamation scheme with a freshly
// constructed scheme of the given kind, over the same arena, while the
// Domain stays live. This is the drain-and-swap design: Switch briefly
// gates new guard acquisition (Guard/Pin/AcquireGuard callers park, they
// do not fail), collects every guard's tid in the guard table as it comes
// home, drains the outgoing scheme's retire backlog to zero, then swaps
// schemes, lifts the gate and releases the collected tids, handing them
// to acquirers that parked before the switch. In-flight operations are
// never interrupted — the gate only delays the start of new ones — so the
// pause is bounded by the longest operation in flight plus the drain.
//
// Safety across the swap rests on two invariants. First, no block is
// retired-but-unreclaimed when the new scheme starts: the old backlog was
// drained under quiescence (every guard released means no reservation can
// protect anything), so the new scheme never judges a block whose
// retirement it did not observe. Second, era stamps that survive the swap
// (allocation eras on live blocks) stay below the new scheme's clock: the
// Domain tracks the maximum era/epoch any of its schemes ever reached and
// seeds each new scheme at that floor (reclaim.Config.InitialEra), so a
// stale stamp can only widen a lifespan estimate, never invert one.
//
// Cumulative telemetry (scan counts, step histograms, slow paths) carries
// across the swap and the era clock never moves back, so Sampler
// histories and Monitor trajectories stay monotone.
// Telemetry.SchemeSwitches counts completed swaps, and the tracer (when
// armed) records a scheme-switch event with the outgoing and incoming
// kinds.
//
// Switch serializes with itself; concurrent calls queue. Switching to the
// current kind is a no-op. It returns an error only for an unknown kind —
// a swap that starts always completes. That also means Switch waits as
// long as it takes for held guards to come home: a program holding an
// explicit Guard for a worker's lifetime must release it (or use
// SwitchWithin) or Switch blocks, gate down, until it does.
func (d *Domain[T]) Switch(kind SchemeKind) error { return d.switchWithin(kind, 0) }

// ErrSwitchBusy is returned by SwitchWithin when in-flight guards did not
// drain within the wait bound. The switch is aborted cleanly: the gate is
// lifted, the scheme unchanged, and the Domain fully usable.
var ErrSwitchBusy = errors.New("wfe: scheme switch aborted: held guards did not drain within the wait bound")

// SwitchWithin is Switch with a bounded drain wait: if some guard is still
// held drainWait after the gate drops — a long-lived explicit Guard, or an
// operation wedged on something external — the switch aborts with
// ErrSwitchBusy instead of gating the Domain indefinitely. A drainWait of
// zero or less waits forever (plain Switch). This is the variant
// SamplerConfig.AutoSwitch uses: a sampler must never wedge the Domain (and Close) on a
// switch that cannot complete because the program legitimately holds
// guards across ticks.
func (d *Domain[T]) SwitchWithin(kind SchemeKind, drainWait time.Duration) error {
	return d.switchWithin(kind, drainWait)
}

func (d *Domain[T]) switchWithin(kind SchemeKind, drainWait time.Duration) error {
	// Resolve the factory before gating anything: an unknown kind must not
	// cost the Domain a pause.
	factory, ok := schemes.Lookup(kind.String())
	if !ok {
		return fmt.Errorf("wfe: unknown scheme %q", kind.String())
	}
	d.switchMu.Lock()
	defer d.switchMu.Unlock()
	old := d.scheme()
	if old.kind == kind {
		return nil
	}

	// Gate new acquisitions and wait for the in-flight set to drain: the
	// pauser collects every tid as it comes home, and quiescence is
	// Collect reporting that it holds the whole guard table. A tid the
	// pauser holds cannot be in use, so from then on no guard's
	// reservation is live and none can be established before Resume.
	// An acquirer whose claim raced the gate keeps its tid until it is
	// done; the loop simply collects it afterwards.
	var deadline time.Time
	if drainWait > 0 {
		deadline = time.Now().Add(drainWait)
	}
	d.guards.Pause()
	defer d.guards.Resume()
	for spins := 0; ; spins++ {
		if err := fpSwitchDrain.Eval(0); err != nil {
			return ErrSwitchBusy
		}
		if d.guards.Collect() {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrSwitchBusy
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Quiescent now: the pauser holds every tid, so no reservation
	// protects anything and every retired block is reclaimable by
	// definition. Drain the old scheme's per-tid retire rings
	// unconditionally, then sweep the arena for retired blocks the old
	// scheme never tracked (the Leak baseline discards its retire ring
	// contents once published).
	oldRet := old.s.Retirer()
	for tid := 0; tid < d.guards.Cap(); tid++ {
		oldRet.DrainAll(tid)
	}
	d.arena.FreeRetired(0)

	// Advance the era floor past every clock the outgoing scheme ran, then
	// build the incoming scheme with its clock seeded at the floor.
	if e := clock(old.s); e > d.eraFloor {
		d.eraFloor = e
	}
	cfg := d.cfg
	cfg.InitialEra = d.eraFloor
	next := factory(d.arena, cfg)
	next.Retirer().CarryFrom(oldRet)

	d.smr.Store(&schemeBox{s: next, kind: kind, slowPathBase: old.slowPathBase + slowPaths(old.s)})
	d.schemeSwitches.Add(1)
	d.tracer.Emit(trace.SharedTid, trace.KindSchemeSwitch, uint64(old.kind), uint64(kind))
	return nil
}

// A Ref[T] is a typed reference to a block of its Domain, possibly carrying
// a mark bit (see WithMark). The zero Ref is nil. Refs are plain values:
// comparable with ==, freely copyable, and only dereferenceable through a
// Guard while the block is protected, owned, or quiescent.
type Ref[T any] struct{ link uint64 }

// IsNil reports whether the Ref references no block (mark bit ignored).
func (r Ref[T]) IsNil() bool { return r.link&pack.HandleMask == 0 }

// Marked reports whether the Ref carries the logical-deletion mark bit.
func (r Ref[T]) Marked() bool { return r.link&pack.MarkBit != 0 }

// WithMark returns the Ref with the Harris–Michael logical-deletion mark
// bit set. A marked link stored in a node's word means the node is deleted;
// the mark travels with the link, not the block.
func (r Ref[T]) WithMark() Ref[T] { return Ref[T]{r.link | pack.MarkBit} }

// Unmarked returns the Ref with the mark bit cleared.
func (r Ref[T]) Unmarked() Ref[T] { return Ref[T]{r.link &^ pack.MarkBit} }

// Flagged reports whether the Ref carries the second spare link bit. The
// Natarajan–Mittal tree uses it as the tag that freezes a sibling edge
// while a deletion moves the sibling up; any custom structure may use it as
// a second per-link state bit alongside the mark.
func (r Ref[T]) Flagged() bool { return r.link&pack.FlagBit != 0 }

// WithFlag returns the Ref with the second spare link bit set. Like the
// mark, the flag travels with the link, not the block.
func (r Ref[T]) WithFlag() Ref[T] { return Ref[T]{r.link | pack.FlagBit} }

// Unflagged returns the Ref with the second spare link bit cleared.
func (r Ref[T]) Unflagged() Ref[T] { return Ref[T]{r.link &^ pack.FlagBit} }

// Clean returns the Ref with both spare link bits (mark and flag) cleared:
// the bare block reference a traversal follows.
func (r Ref[T]) Clean() Ref[T] { return Ref[T]{r.link &^ (pack.MarkBit | pack.FlagBit)} }

func (r Ref[T]) handle() mem.Handle { return r.link & pack.HandleMask }

// An Atomic[T] is an atomic link cell holding a Ref[T] — the root pointer
// of a concurrent structure (a stack top, a queue head, a bucket head).
// The zero value holds the nil Ref. Reading a non-root link that another
// goroutine may retire requires Guard.Protect, not Load.
type Atomic[T any] struct{ v atomic.Uint64 }

// Load returns the current Ref.
func (a *Atomic[T]) Load() Ref[T] { return Ref[T]{a.v.Load()} }

// Store sets the Ref. The referenced block must already be fully
// initialised: Store publishes it.
func (a *Atomic[T]) Store(r Ref[T]) { a.v.Store(r.link) }

// CompareAndSwap swaps old for new atomically, reporting success.
func (a *Atomic[T]) CompareAndSwap(old, new Ref[T]) bool {
	return a.v.CompareAndSwap(old.link, new.link)
}

// A Guard is one goroutine's handle on a Domain: it owns one of the
// scheme's thread slots (the paper's tid) and with it the right to
// allocate, protect and retire blocks. A Guard must be used by one
// goroutine at a time.
//
// A Domain has exactly MaxGuards Guards, one per tid, made by NewDomain
// and kept for the Domain's life; acquiring a guard claims its tid in the
// Domain's guard table with one CAS and allocates nothing. The guard
// runtime offers three acquisition paths, cheapest first:
//
//   - Guardless: call the structures' plain methods (Stack.TryPush,
//     HashMap.Get, ...). Each operation leases a guard, trying first the
//     one last unpinned on its P, and returns it. No Guard is in sight,
//     goroutines may outnumber MaxGuards arbitrarily, and exhaustion
//     parks instead of failing.
//   - Pinned: Domain.Pin / Domain.Unpin bracket a batch of Guarded-variant
//     calls with one lease — the guardless path's cost, paid once per
//     batch instead of once per operation.
//   - Explicit: Domain.Guard (panics when exhausted — a sizing bug),
//     Domain.TryGuard (polls), or Domain.AcquireGuard (parks, honours a
//     context) paired with Release. For fixed worker sets and hot loops.
//
// A custom data structure built on Guards follows the paper's operation
// shape: Begin, any number of Protect/Load/Store/CompareAndSwap/Retire
// calls, then End. The built-in structures do this internally — their
// callers at most lease the Guard.
type Guard[T any] struct {
	d   *Domain[T] // nil while the guard is released (fail fast on use)
	tid int

	// unpinned records how the last holder returned the guard: true for
	// Unpin, false for Release. A lease that claims the guard without
	// parking counts a lease-cache hit when it is set.
	unpinned bool

	// Batch-context state (see batch.go). While batching, Retire diverts
	// into batchRetires for one RetireBatch submission at endBatch;
	// batchSpan records BeginBatch's verdict — whether one reservation
	// span covers the whole batch, or the runner must Clear between items
	// (HP). Owner-goroutine only, reset by endBatch.
	batching     bool
	batchSpan    bool
	batchRetires []mem.Handle
	// batchNodes are reusable backing arrays for the up-front allocation
	// runs of the batch write APIs (scratchNodes), so a guard running
	// bursts in a hot loop allocates its node lists once, not per burst.
	batchNodes [2][]Ref[T]

	// Lease and batch accounting for the Domain's life. Only the guard's
	// holder writes (load-then-store, no read-modify-write), so a lease or
	// a burst updates a line no other guard writes instead of contending
	// on a shared Domain counter. Each store is still atomic, an implicitly
	// locked XCHG on amd64, because Telemetry sums the fields concurrently
	// over the guard table.
	leaseHits, leaseMisses atomic.Uint64
	batchOps, batchItems   atomic.Uint64

	// The padding keeps the next guard's fields, written by its own
	// holder, off the cache line of this guard's counters.
	_ [64]byte
}

// bump adds one to a counter only its guard's holder writes.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// noteBatch accounts one completed batch of items operations on the
// guard's counters (holder-only, see the field comment).
func (g *Guard[T]) noteBatch(items int) {
	bump(&g.batchOps)
	g.batchItems.Store(g.batchItems.Load() + uint64(items))
}

// scratchNodes returns an empty slice with capacity at least n backed by
// the guard's reusable batch scratch (which of 0 or 1 — the tree's batch
// insert needs two runs live at once). Valid only until the next
// scratchNodes call with the same index; never returned to callers.
func (g *Guard[T]) scratchNodes(which, n int) []Ref[T] {
	if cap(g.batchNodes[which]) < n {
		g.batchNodes[which] = make([]Ref[T], 0, n)
	}
	return g.batchNodes[which][:0]
}

// Domain returns the Domain this guard belongs to.
func (g *Guard[T]) Domain() *Domain[T] { return g.d }

// Release returns the guard to its Domain's guard table, handing it to a
// parked AcquireGuard if one is waiting. The guard must not be used
// afterwards: Release unbinds it from the Domain until its next
// acquisition, so a use after Release, or a second Release, panics.
// Release drops any protections the guard still holds (an implicit End),
// so a guard abandoned mid-operation — a panic between Begin and End, say
// — cannot block reclamation for the rest of the Domain's life.
func (g *Guard[T]) Release() {
	d := g.d
	d.scheme().s.Clear(g.tid)
	g.unpinned = false
	g.d = nil // unbound before the tid is free: every claim binds it again
	d.guards.Release(g.tid)
}

// Begin marks the start of a data-structure operation. Epoch- and
// interval-based schemes announce activity here; WFE, HE and HP no-op.
// Inside a batch context the announcement made at beginBatch already
// covers the item (and for HP, Begin is a no-op regardless), so Begin
// does nothing — which lets the batch APIs reuse the per-op Guarded
// method bodies unchanged (see batch.go).
func (g *Guard[T]) Begin() {
	if g.batching {
		return
	}
	g.d.scheme().s.Begin(g.tid)
}

// End marks the end of an operation, dropping every protection the guard
// holds (the paper's clear()). Refs obtained from Protect must not be
// dereferenced after End. Inside a batch context End degrades to
// batchStep: a no-op under a batch-wide reservation span, a per-item
// hazard clear under HP — so each batched item keeps exactly the per-op
// HP protection discipline.
func (g *Guard[T]) End() {
	if g.batching {
		g.batchStep()
		return
	}
	g.d.scheme().s.Clear(g.tid)
}

// Alloc allocates a block holding v and returns an owned (not yet
// published) Ref to it. All NumWords link/metadata words read zero: a
// block allocated for the first time comes zeroed from its arena chunk,
// and Alloc zeroes a recycled one (the arena recycles blocks without
// clearing them). Stamp metadata with StoreMeta and links with Store
// before publishing the block by CAS-ing its Ref into the structure.
//
// When the arena is exhausted Alloc runs the Domain's emergency
// reclamation pipeline (out-of-cadence scans with backoff, see
// Options.AllocRetries) and panics with an error wrapping
// ErrArenaExhausted only once that pipeline is spent. It is the one
// allocation in the public API that panics; callers that want the error
// instead use TryAlloc, which every built-in structure's write is built
// on.
func (g *Guard[T]) Alloc(v T) Ref[T] {
	r, err := g.TryAlloc(v)
	g.d.must(err)
	return r
}

// TryAlloc is Alloc with backpressure: when the arena stays exhausted
// after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (g *Guard[T]) TryAlloc(v T) (Ref[T], error) {
	h, err := g.d.allocHandle(g.tid)
	if err != nil {
		return Ref[T]{}, err
	}
	return g.initBlock(h, v), nil
}

// initBlock zeroes a recycled block's words under the arena's one
// zeroing rule (mem.Arena.ZeroWords: a block never freed needs no
// stores) and stores its value.
func (g *Guard[T]) initBlock(h mem.Handle, v T) Ref[T] {
	g.d.arena.ZeroWords(h)
	*g.d.vals.At(h - 1) = v
	return Ref[T]{h}
}

// allocInside is TryAlloc for the lazy allocation sites that sit inside a
// protected section (an insert allocates only once its key is known
// absent). It makes one fast attempt; when the arena is dry it drops the
// protection (End) before entering the emergency pipeline and re-enters
// (Begin) afterwards, because a stalled allocator still holding traversal
// reservations pins every contemporaneous block against every scan, and
// a herd of such stalls would deadlock the very reclamation each is
// waiting for. stale reports that the protection was dropped: the
// caller's traversal window is stale and must be redone. Never call it
// inside a batch context, where End keeps the batch-wide span; batches
// allocate their runs up front instead (allocRun).
func (g *Guard[T]) allocInside(v T) (r Ref[T], stale bool, err error) {
	if h, ok := g.d.scheme().s.TryAlloc(g.tid); ok {
		return g.initBlock(h, v), false, nil
	}
	g.End()
	r, err = g.TryAlloc(v)
	g.Begin()
	return r, true, err
}

// allocRun allocates a block for each value of vs, in order, into the
// guard's scratch run 0 (see scratchNodes): the batch form of allocating
// before protection, called before the batch opens its span. On exhaustion it stops and
// returns the prefix it obtained with the error; the caller still applies
// that prefix and reports its length.
func (g *Guard[T]) allocRun(vs []T) ([]Ref[T], error) {
	nodes := g.scratchNodes(0, len(vs))
	for _, v := range vs {
		n, err := g.TryAlloc(v)
		if err != nil {
			return nodes, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// Dealloc returns a never-published block to the arena immediately — the
// undo of Alloc for the insert-lost-the-race case. It must not be used on
// a block any other goroutine could have seen; published blocks go through
// Retire instead.
func (g *Guard[T]) Dealloc(r Ref[T]) { g.d.arena.Free(g.tid, r.handle()) }

// Retire hands a block that has been unlinked from its structure to the
// reclamation scheme, which recycles it once no protected reader can still
// hold it. Retire does not release the caller's own protection — the
// caller may keep using the block until End.
//
// Retirement is per-tid, not per-goroutine: a block retired through a
// leased guard (the guardless structure methods, or Pin/Unpin batches)
// joins the same per-tid retire list an explicit Guard would use, and its
// cleanup scan may run later under whichever goroutine next leases that
// tid. All three acquisition paths therefore share one retire discipline;
// none can strand a retired block.
func (g *Guard[T]) Retire(r Ref[T]) {
	if g.batching {
		// Inside a batch context the retire is deferred: endBatch submits
		// the whole burst through RetireBatch, so the scan-gating counter
		// advances once per batch. Deferral only delays reclamation —
		// always safe.
		g.batchRetires = append(g.batchRetires, r.handle())
		return
	}
	g.d.scheme().s.Retire(g.tid, r.handle())
}

// Protect reads a structure-root link and protects the referenced block
// until End (or until slot is reused by a later Protect). slot selects one
// of the guard's MaxSlots protections. The returned Ref preserves the mark
// bit stored in the link.
func (g *Guard[T]) Protect(src *Atomic[T], slot int) Ref[T] {
	return Ref[T]{g.d.scheme().s.GetProtected(g.tid, &src.v, slot, 0) & pack.PtrMask}
}

// ProtectWord reads link word `word` of the protected-or-owned block
// `parent` and protects the referenced block, like Protect. Passing the
// parent lets WFE's helpers keep it alive while they complete the read on
// the guard's behalf (paper §3.4).
func (g *Guard[T]) ProtectWord(parent Ref[T], word, slot int) Ref[T] {
	ph := parent.handle()
	src := g.d.arena.WordAddr(ph, word)
	return Ref[T]{g.d.scheme().s.GetProtected(g.tid, src, slot, ph) & pack.PtrMask}
}

// Value returns the block's value. The block must be protected, owned, or
// quiescent; in Debug mode a freed block panics.
func (g *Guard[T]) Value(r Ref[T]) T {
	h := r.handle()
	g.d.arena.CheckLive(h, "Value")
	return *g.d.vals.At(h - 1)
}

// Load atomically reads link word `word` of block r, mark bit included.
// Use Protect/ProtectWord instead when the referenced block must stay
// alive across the read.
func (g *Guard[T]) Load(r Ref[T], word int) Ref[T] {
	return Ref[T]{g.d.arena.LoadWord(r.handle(), word) & pack.PtrMask}
}

// Store atomically writes link word `word` of block r.
func (g *Guard[T]) Store(r Ref[T], word int, l Ref[T]) {
	g.d.arena.StoreWord(r.handle(), word, l.link)
}

// CompareAndSwap atomically swaps link word `word` of block r from old to
// new, reporting success. Mark bits participate in the comparison: a CAS
// expecting an unmarked link fails once a deleter marks it.
func (g *Guard[T]) CompareAndSwap(r Ref[T], word int, old, new Ref[T]) bool {
	return g.d.arena.CASWord(r.handle(), word, old.link, new.link)
}

// LoadMeta atomically reads word `word` of block r as raw metadata (a key,
// a version, a length — anything that is not a link).
func (g *Guard[T]) LoadMeta(r Ref[T], word int) uint64 {
	return g.d.arena.LoadWord(r.handle(), word)
}

// StoreMeta atomically writes raw metadata word `word` of block r.
func (g *Guard[T]) StoreMeta(r Ref[T], word int, v uint64) {
	g.d.arena.StoreWord(r.handle(), word, v)
}
