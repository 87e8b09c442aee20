// Package core holds every reclamation scheme of the repository, each one a
// reservation layout and a judge over one shared runtime. At its centre is
// the paper's universal construction: Wait-Free Eras (Nikolaev &
// Ravindran, PPoPP 2020) as a lock-free era scheme plus helping, applied to
// both base schemes the paper names.
//
//   - HE (he.go) is Hazard Eras, Figure 1, and WFE (wfe.go) is HE plus
//     helping, Figure 4 — the paper's contribution.
//   - IBR (ibr.go) is 2GEIBR, and WFEIBR (wfeibr.go) is 2GEIBR plus the
//     same helping, the §2.4 remark that the construction applies to it.
//   - HP (hp.go) is Hazard Pointers: HE's reservations publishing the
//     handle read instead of the era, the step by which Ramalhete &
//     Correia derived Hazard Eras from it.
//   - EBR (ebr.go) is epoch-based reclamation, its epoch the era clock.
//   - Leak (leak.go) is the no-reclamation baseline.
//
// Each piece exists once, in base: the era clock (clock), the padded
// row-major reservation board (board), the per-thread records, the shared
// reclaim.Retirer, and every reclaim.Scheme method that only forwards or
// stamps. A scheme embeds base and supplies Begin, GetProtected, Clear
// and its Judge, plus the PreScanner, RetireObserver or TwoPhase hook it
// needs. A helping scheme embeds its base scheme and one request board
// (requests), and advances the clock through incrementEra, so that every
// tick helps every pending request first — that is what bounds the slow
// path (Lemma 1). The judges are the reservation shapes of
// reclaim.Snapshot: EraReserved for HE and WFE, IntervalReserved for 2GEIBR
// and WFE-IBR, HandleReserved for HP, and the two-epoch grace rule for EBR.
//
// Go embedding has no virtual dispatch, so base reaches the embedding
// scheme in two ways only, both fixed when the scheme is built: base.init
// takes the outermost scheme, which judges for the Retirer, and
// clock.start takes the scheme's advance, which every tick site
// (TryAlloc, AdvanceClock, PreScan, OnRetire) calls.
//
// New and Lookup map each legend name, the -slow ablation variants
// included, to its constructor.
package core

import (
	"fmt"
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

// threadState is one thread's owner-written bookkeeping. The clock's
// allocation count and the schemes' per-thread fields share one padded
// record, so an operation's per-thread writes stay on one cache line:
// with the count on a line of its own, HE's Figure 7 hash-map benchmark
// used about 15% more CPU at two threads (2-vCPU Xeon VM).
type threadState struct {
	allocs uint64 // allocations so far, the clock's EraFreq cadence
	// dirty (HE, WFE, HP) is one past the highest reservation index used
	// since the last Clear, bounding Clear's work to the indices touched.
	dirty int
	tag   uint64 // WFE-IBR's slow-path cycle counter
	_     [56]byte
}

// clock is the global era clock of every scheme in this package: the era
// of HE, WFE, 2GEIBR and WFE-IBR and the epoch of EBR. HP and Leak never
// start it, so it reads 0 under them.
type clock struct {
	era    atomic.Uint64
	freq   uint64
	tracer *trace.Tracer
	// advance moves the clock on the allocation cadence and on
	// AdvanceClock: tick (HE, 2GEIBR), incrementEra (WFE, WFE-IBR) or EBR's
	// conditional advance. It is nil while the clock is stopped.
	advance func(tid int)
}

// start seeds the clock at era and sets how the scheme advances it.
func (c *clock) start(era uint64, advance func(tid int)) {
	c.era.Store(era)
	c.advance = advance
}

// Era returns the current global era clock value.
func (c *clock) Era() uint64 { return c.era.Load() }

// retireDue reports whether a thread's 0-based retirement ordinal n is on
// the cadence the interval schemes' OnRetire ticks at.
func (c *clock) retireDue(n uint64) bool { return n%c.freq == 0 }

// tick advances the clock.
func (c *clock) tick(tid int) { c.ticked(tid, c.era.Add(1)) }

// tickFrom advances the clock if it still reads cur (EBR's advance).
func (c *clock) tickFrom(tid int, cur uint64) {
	if c.era.CompareAndSwap(cur, cur+1) {
		c.ticked(tid, cur+1)
	}
}

// ticked guards the 38-bit packing bound and traces the advance to era.
func (c *clock) ticked(tid int, era uint64) {
	if era >= pack.MaxEra {
		panic("core: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	c.tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// board is the reservation board every scheme publishes on: row-major
// [MaxThreads][cols] words, each row padded to a cache-line multiple.
// HE and HP publish one EraTag word per reservation index (WFE adds its
// two special columns), 2GEIBR an interval as two columns [lower, upper]
// (WFE-IBR adds its special interval), and EBR its announcement.
type board struct {
	words  []atomic.Uint64
	stride int
}

func (b *board) init(threads, cols int, empty uint64) {
	b.stride = (cols + 7) &^ 7 // round the row up to a cache line
	b.words = make([]atomic.Uint64, threads*b.stride)
	for i := range b.words {
		b.words[i].Store(empty)
	}
}

func (b *board) resv(tid, j int) *atomic.Uint64 { return &b.words[tid*b.stride+j] }

// base is what every scheme shares, and the reclaim.Scheme methods that
// are the same for all of them.
type base struct {
	clock
	board
	name    string
	arena   *mem.Arena
	cfg     reclaim.Config
	rt      *reclaim.Retirer
	threads []threadState
}

// init builds the base of s, the outermost scheme. s judges for the
// Retirer; a scheme that is no Judge (Leak) selects the Retirer's
// judge-less mode. The board and the clock are the scheme's to set up.
func (b *base) init(s reclaim.Scheme, name string, arena *mem.Arena, cfg reclaim.Config) {
	cfg = cfg.Defaults()
	b.name, b.arena, b.cfg = name, arena, cfg
	b.freq, b.tracer = uint64(cfg.EraFreq), cfg.Tracer
	b.threads = make([]threadState, cfg.MaxThreads)
	judge, _ := s.(reclaim.Judge)
	b.rt = reclaim.NewRetirer(arena, cfg, judge)
}

// Name implements reclaim.Scheme.
func (b *base) Name() string { return b.name }

// Arena implements reclaim.Scheme.
func (b *base) Arena() *mem.Arena { return b.arena }

// Retirer implements reclaim.Scheme.
func (b *base) Retirer() *reclaim.Retirer { return b.rt }

// Unreclaimed implements reclaim.Scheme.
func (b *base) Unreclaimed() int { return b.rt.Unreclaimed() }

// SlowPaths implements reclaim.Scheme: 0, except where a helping scheme's
// request board (requests.SlowPaths) shadows it.
func (b *base) SlowPaths() uint64 { return 0 }

// TryAlloc implements the paper's alloc_block: the clock advances on its
// cadence (the thread's first allocation, then every EraFreq-th), then the
// block is stamped with its allocation era.
func (b *base) TryAlloc(tid int) (mem.Handle, bool) {
	if b.advance != nil {
		t := &b.threads[tid]
		if t.allocs%b.freq == 0 {
			b.advance(tid)
		}
		t.allocs++
	}
	blk, ok := b.arena.TryAlloc(tid)
	if ok {
		b.arena.SetAllocEra(blk, b.era.Load())
	}
	return blk, ok
}

// AdvanceClock implements reclaim.Scheme: the clock's advance out of the
// allocation cadence, the emergency-reclamation hook.
func (b *base) AdvanceClock(tid int) {
	if b.advance != nil {
		b.advance(tid)
	}
}

// Retire implements the paper's retire: stamp the retire era and hand the
// block to the shared retire-side runtime, whose gated scan runs the
// scheme's PreScan first.
func (b *base) Retire(tid int, blk mem.Handle) {
	b.arena.SetRetireEra(blk, b.era.Load())
	b.rt.Retire(tid, blk)
}

// RetireBatch implements reclaim.Scheme: stamp every block with the era
// read once at submission — the clock is monotone, so that era is ≥ each
// unlink's and the stamped lifespan only over-approximates — and hand the
// burst to the runtime's amortized retire path.
func (b *base) RetireBatch(tid int, blks []mem.Handle) {
	era := b.era.Load()
	for _, blk := range blks {
		b.arena.SetRetireEra(blk, era)
	}
	b.rt.RetireBatch(tid, blks)
}

// dirty marks reservation index as used since the last Clear.
func (b *base) dirty(tid, index int) {
	if t := &b.threads[tid]; index >= t.dirty {
		t.dirty = index + 1
	}
}

// clearSlots is the paper's clear for the schemes that publish one EraTag
// word per index (HE, WFE, HP): every index used since the last Clear back
// to ∞, tags preserved so WFE's stale helpers from completed cycles keep
// failing their CAS. ∞ is the all-ones era, so the word is cleared by
// setting its era bits.
func (b *base) clearSlots(tid int) {
	t := &b.threads[tid]
	inf := uint64(pack.MakeEraTag(pack.Inf, 0))
	row := b.words[tid*b.stride:]
	for j := range t.dirty {
		if v := row[j].Load(); v < inf {
			row[j].Store(v | inf)
		}
	}
	t.dirty = 0
}

// gatherSlots appends the published values (eras, or HP's handles) of
// columns [js, je) across all threads to the snapshot.
func (b *base) gatherSlots(s *reclaim.Snapshot, js, je int) {
	for i := 0; i < b.cfg.MaxThreads; i++ {
		for j := js; j < je; j++ {
			if v := pack.EraTag(b.resv(i, j).Load()).Era(); v != pack.Inf {
				s.AddEra(v)
			}
		}
	}
}

// request is one helping request, the paper's state_s.
type request struct {
	// result is a packed ResPair. Input (request posted): {InvPtr, tag}.
	// Output: {link value, era}. Cancelled: {0, Inf}.
	result atomic.Uint64
	// era is the parent block's allocation (birth) era, protecting the
	// parent while helpers dereference pointer (Inf when the source is a
	// structure root).
	era atomic.Uint64
	// pointer is the hazardous location to read on the requester's behalf.
	pointer atomic.Pointer[atomic.Uint64]
	_       [64 - 3*8]byte
}

// requests is the helping schemes' request board: the request slots, the
// counterStart/counterEnd pair the cleanup gate and the help loop read,
// and the slow-path count. How a request is served — helpThread — and how
// a requester's slow path waits for it stay with each scheme: they are
// different hand-over proofs.
type requests struct {
	counterStart atomic.Uint64 // threads that entered the slow path
	counterEnd   atomic.Uint64 // threads that left the slow path
	slowPaths    atomic.Uint64 // slow-path entries; ablation A1 reads it
	slots        []request
}

func (r *requests) init(n int) {
	r.slots = make([]request, n)
	for i := range r.slots {
		r.slots[i].result.Store(uint64(pack.MakeRes(0, pack.Inf)))
		r.slots[i].era.Store(pack.Inf)
	}
}

// SlowPaths returns how many GetProtected calls entered the slow path.
func (r *requests) SlowPaths() uint64 { return r.slowPaths.Load() }

// post publishes a request for slot k to read src, with era protecting
// src's parent, and returns the slot and its pending result word.
func (r *requests) post(k int, src *atomic.Uint64, era, tag uint64) (*request, uint64) {
	r.slowPaths.Add(1)
	r.counterStart.Add(1)
	st := &r.slots[k]
	st.pointer.Store(src)
	st.era.Store(era)
	pending := uint64(pack.MakeRes(pack.InvPtr, tag))
	st.result.Store(pending)
	return st, pending
}

// helpPending runs help on every pending request, and must precede every
// tick of a helping scheme's clock (paper lines 87-93): this is what bounds
// the slow path by the number of in-flight era increments.
func (r *requests) helpPending(tid int, help func(k, tid int)) {
	ce := r.counterEnd.Load()
	if r.counterStart.Load() == ce {
		return
	}
	for k := range r.slots {
		if pack.ResPair(r.slots[k].result.Load()).Pending() {
			help(k, tid)
		}
	}
}

// A Factory constructs one reclamation scheme over an arena.
type Factory func(*mem.Arena, reclaim.Config) reclaim.Scheme

// registry maps every legend name — plus the -slow ablation variants,
// which pin ForceSlowPath before construction — to its constructor.
var registry = map[string]Factory{
	"WFE":      func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewWFE(a, cfg) },
	"WFE-slow": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewWFE(a, slow(cfg)) },
	"HE":       func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewHE(a, cfg) },
	"HP":       func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewHP(a, cfg) },
	"EBR":      func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewEBR(a, cfg) },
	"2GEIBR":   func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewIBR(a, cfg) },
	"WFE-IBR":  func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewWFEIBR(a, cfg) },
	"WFE-IBR-slow": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme {
		return NewWFEIBR(a, slow(cfg))
	},
	"Leak": func(a *mem.Arena, cfg reclaim.Config) reclaim.Scheme { return NewLeak(a, cfg) },
}

// slow is ablation A2's configuration: every GetProtected of a helping
// scheme takes the slow path.
func slow(cfg reclaim.Config) reclaim.Config {
	cfg.ForceSlowPath = true
	return cfg
}

// Lookup resolves a scheme name to its constructor without building
// anything, so the live scheme switch fails fast before it pauses.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// New builds the named scheme over the given arena.
func New(name string, arena *mem.Arena, cfg reclaim.Config) (reclaim.Scheme, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", name)
	}
	return f(arena, cfg), nil
}
