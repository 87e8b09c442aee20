// The shared retire-side runtime. The paper's schemes differ only in how
// they decide a retired block is safe to free — eras, intervals, hazard
// identities, epoch distance — while the plumbing around that decision is
// scheme-independent: a per-thread retire list, a CleanupFreq-gated scan
// cadence, scan telemetry, and the protect-loop step histograms behind the
// bounded-steps comparison. Retirer owns all of that once; each scheme
// package shrinks to its era/pointer/epoch logic plus a Judge.

package reclaim

import (
	"slices"
	"sync/atomic"
	"time"

	"wfe/internal/failpoint"
	"wfe/internal/mem"
	"wfe/internal/trace"
)

// fpScan fires at Scan entry: an injected error skips the scan (the
// chaos harness's "reclamation stalled" schedule), an injected sleep
// holds the scanning thread inside the scan window.
var fpScan = failpoint.New("retirer-scan")

// A Judge is the scheme-specific half of a cleanup scan. The runtime calls
// Gather exactly once per scan phase to snapshot whatever reservation state
// could protect retired blocks, then CanFree once per retired block against
// that snapshot. Both run on the retiring thread; Gather must tolerate
// concurrent reservation movement (snapshots may only over-approximate —
// every scheme's conservativeness argument relies on gathered state being
// honoured even if it was cleared mid-scan).
type Judge interface {
	// Gather snapshots the reservations into s (s arrives reset; append
	// with AddEra/AddInterval or stash per-scan scalars with SetAux).
	Gather(tid int, s *Snapshot)
	// CanFree reports whether blk, already unlinked and retired, is
	// unprotected by the gathered snapshot and may be recycled.
	CanFree(tid int, s *Snapshot, blk mem.Handle) bool
}

// A PreScanner is a Judge with era bookkeeping tied to the scan cadence:
// PreScan runs immediately before each gated cleanup scan with the block
// whose retirement triggered it. HE and WFE apply the paper's retire-race
// era advance here; EBR attempts its epoch advance.
type PreScanner interface {
	PreScan(tid int, blk mem.Handle)
}

// A RetireObserver is a Judge whose era clock ticks on retirement: OnRetire
// runs on every retirement after blk joins the retire list and before any
// gated scan, with n the thread's 0-based retirement ordinal. The interval
// schemes gate their retire-driven era advance on n here, so retire-only
// phases still make reclamation progress.
type RetireObserver interface {
	OnRetire(tid int, n uint64, blk mem.Handle)
}

// A TwoPhase is a Judge whose first-phase verdicts are only provisional
// while helping is in flight (WFE, paper Figure 4 lines 57-67): blocks the
// first snapshot clears are re-judged against a second snapshot before
// being freed. NeedSecond is consulted once per scan, after Gather;
// GatherSecond snapshots the second phase's reservation classes.
type TwoPhase interface {
	Judge
	NeedSecond(tid int, s *Snapshot) bool
	GatherSecond(tid int, s *Snapshot)
}

// ScanStats is the cleanup-scan telemetry a Retirer accumulates per thread:
// how many scans ran, how many retired blocks they examined, and the
// nanoseconds they spent. Sample quiescently (the counters are
// owner-written).
type ScanStats struct {
	Scans  uint64
	Blocks uint64
	Nanos  uint64
}

// retireThread is one thread's retire-side state. Only the owning tid
// mutates it; the ring's published length and nothing else is read
// cross-thread.
type retireThread struct {
	ring  ring
	count uint64 // retirements; gates the scan cadence
	hist  StepHist
	stats ScanStats
	// Reusable scan scratch: the two phase snapshots and the candidate
	// list blocks cleared by phase one await phase two on.
	snap      Snapshot
	snap2     Snapshot
	survivors []mem.Handle
	_         [64]byte
}

// Retirer is the shared retire-side runtime: per-thread retire rings with
// batched drain scans, the CleanupFreq gating, scan timing and step
// histograms — parameterized by a per-scheme Judge. One Retirer serves all
// of a scheme's threads; every per-tid method follows the package's
// one-goroutine-per-tid contract.
type Retirer struct {
	arena *mem.Arena
	judge Judge
	two   TwoPhase       // judge, if it re-checks survivors (WFE)
	pre   PreScanner     // judge, if it hooks the scan cadence
	obs   RetireObserver // judge, if its clock ticks on retirement

	cleanupFreq uint64
	cutoff      int
	tracer      *trace.Tracer

	threads []retireThread

	// carry is telemetry inherited from a predecessor Retirer via
	// CarryFrom: a live scheme switch builds a fresh runtime, but the
	// Domain's cumulative counters (scan totals, step histograms) must
	// stay monotone across the swap or every trajectory consumer — the
	// Sampler's EWMAs, the advisor's deltas, OpenMetrics counters — would
	// see them jump backwards. Written once before the Retirer is shared;
	// read-only thereafter.
	carry struct {
		stats ScanStats
		hist  StepHist
	}
}

// NewRetirer creates the runtime over arena for cfg.MaxThreads threads.
// A nil judge selects the no-reclamation mode (the leak baseline): Retire
// only counts, no blocks are stored and no scans run.
func NewRetirer(arena *mem.Arena, cfg Config, judge Judge) *Retirer {
	cfg = cfg.Defaults()
	r := &Retirer{
		arena:       arena,
		judge:       judge,
		cleanupFreq: uint64(cfg.CleanupFreq),
		cutoff:      cfg.SortCutoff,
		tracer:      cfg.Tracer,
		threads:     make([]retireThread, cfg.MaxThreads),
	}
	if judge != nil {
		r.two, _ = judge.(TwoPhase)
		r.pre, _ = judge.(PreScanner)
		r.obs, _ = judge.(RetireObserver)
	}
	return r
}

// Cutoff returns the gathered-reservation count below which this Retirer's
// scans keep the linear sweep: Config.SortCutoff if set, DefaultSortCutoff
// otherwise.
func (r *Retirer) Cutoff() int { return r.cutoff }

// Judged reports whether this Retirer has a Judge at all. The judge-less
// leak baseline retires by counting alone — scanning it can never free a
// block, so emergency-reclamation paths consult Judged before spending
// scans on a backlog that cannot drain.
func (r *Retirer) Judged() bool { return r.judge != nil }

// Retire appends blk to tid's retire ring and runs the scheme's cadence
// hooks: OnRetire on every retirement, then — every CleanupFreq
// retirements — PreScan followed by a cleanup scan. The very first
// retirement of a tid is on the cadence (count 0), matching the paper's
// retire() which scans when the counter is a CleanupFreq multiple.
func (r *Retirer) Retire(tid int, blk mem.Handle) {
	t := &r.threads[tid]
	r.tracer.Emit(tid, trace.KindRetire, blk, 0)
	if r.judge == nil {
		t.count++
		t.ring.published.Add(1) // leaked, by design; nothing is stored
		return
	}
	t.ring.push(blk)
	t.ring.publish()
	n := t.count
	if r.obs != nil {
		r.obs.OnRetire(tid, n, blk)
	}
	// While an allocation is stalled on the exhausted arena, every retire
	// scans out of cadence: rings are single-writer, so the stalled thread
	// cannot reach this ring's blocks itself — its rescue depends on the
	// ring's owner draining it. The eager-publish mode AddWaiter switched
	// on then moves the frees to a mailbox where the waiter can claim
	// them. Between stalls this is one relaxed load per retire.
	if n%r.cleanupFreq == 0 || r.arena.Pressured() {
		if r.pre != nil {
			r.pre.PreScan(tid, blk)
		}
		r.Scan(tid)
	}
	t.count++
}

// RetireBatch appends every block in blks to tid's retire ring as one
// burst: the blocks are pushed and published together, the cadence hooks
// (OnRetire, PreScan, the gated Scan) run at most once, and the
// scan-gating retirement counter advances by one for the whole batch.
// This is the retire-side half of the batched-operations amortization:
// a burst of B retires costs one cadence step instead of B, so cleanup
// keeps firing once per CleanupFreq bursts rather than mid-burst.
func (r *Retirer) RetireBatch(tid int, blks []mem.Handle) {
	if len(blks) == 0 {
		return
	}
	t := &r.threads[tid]
	if r.judge == nil {
		for _, blk := range blks {
			r.tracer.Emit(tid, trace.KindRetire, blk, 0)
		}
		t.count++
		t.ring.published.Add(int64(len(blks))) // leaked, by design
		return
	}
	for _, blk := range blks {
		r.tracer.Emit(tid, trace.KindRetire, blk, 0)
		t.ring.push(blk)
	}
	t.ring.publish()
	n := t.count
	last := blks[len(blks)-1]
	if r.obs != nil {
		r.obs.OnRetire(tid, n, last)
	}
	if n%r.cleanupFreq == 0 || r.arena.Pressured() {
		if r.pre != nil {
			r.pre.PreScan(tid, last)
		}
		r.Scan(tid)
	}
	t.count++
}

// Add appends blk to tid's retire ring without the cadence bookkeeping: no
// hooks run, no scan is gated, and the retirement count is untouched. It
// exists for harnesses that stage a retire list and drive Scan explicitly;
// the production path is Retire.
func (r *Retirer) Add(tid int, blk mem.Handle) {
	t := &r.threads[tid]
	t.ring.push(blk)
	t.ring.publish()
}

// Scan drains tid's retire ring through the Judge once: the snapshot is
// gathered, sealed (sorted at or above the cutoff), and every retired
// block judged against it — freed if clear, re-queued on the ring
// otherwise. A TwoPhase judge's
// cleared blocks instead await a second gather/judge pass. Outside the
// retire cadence it is the settling primitive: call it on a quiescent tid
// to collapse the backlog.
func (r *Retirer) Scan(tid int) {
	if r.judge == nil {
		return
	}
	if err := fpScan.Eval(tid); err != nil {
		return
	}
	t := &r.threads[tid]
	n := t.ring.len()
	if n == 0 {
		// Nothing to judge, but an empty ring is still a settled one: let
		// the settle streak advance so post-drain quiescent scans shed a
		// spike-grown buffer too.
		t.ring.maybeShrink()
		return
	}
	start := time.Now()
	r.tracer.Emit(tid, trace.KindScanBegin, uint64(n), 0)
	freed := uint64(0)

	s := &t.snap
	s.reset()
	r.judge.Gather(tid, s)
	s.seal(r.cutoff)
	second := r.two != nil && r.two.NeedSecond(tid, s)

	survivors := t.survivors[:0]
	for i := 0; i < n; i++ {
		blk := t.ring.pop()
		switch {
		case !r.judge.CanFree(tid, s, blk):
			t.ring.push(blk)
		case second:
			survivors = append(survivors, blk)
		default:
			r.arena.Free(tid, blk)
			freed++
		}
	}
	if second {
		s2 := &t.snap2
		s2.reset()
		r.two.GatherSecond(tid, s2)
		s2.seal(r.cutoff)
		for _, blk := range survivors {
			if r.two.CanFree(tid, s2, blk) {
				r.arena.Free(tid, blk)
				freed++
			} else {
				t.ring.push(blk)
			}
		}
	}
	t.survivors = survivors[:0]
	t.ring.publish()
	t.ring.maybeShrink()
	// Published atomically (single writer) so concurrent trajectory
	// samplers (Probe, Stats) read race-free approximations.
	atomic.AddUint64(&t.stats.Scans, 1)
	atomic.AddUint64(&t.stats.Blocks, uint64(n))
	atomic.AddUint64(&t.stats.Nanos, uint64(time.Since(start)))
	r.tracer.Emit(tid, trace.KindScanEnd, uint64(n), freed)
}

// DrainAll frees every block on tid's retire ring unconditionally, without
// consulting the Judge, and returns how many it freed. It is the live
// scheme switch's drain primitive and is only sound at quiescence: with
// every guard released, every reservation is cleared, so no retired block
// can still be protected. For the judge-less leak mode it resets the
// published count (the leaked blocks themselves are reclaimed separately,
// via the arena's retired-slot sweep).
func (r *Retirer) DrainAll(tid int) int {
	t := &r.threads[tid]
	n := t.ring.len()
	for i := 0; i < n; i++ {
		r.arena.Free(tid, t.ring.pop())
	}
	t.ring.publish()
	t.ring.maybeShrink()
	return n
}

// CarryFrom inherits prev's cumulative telemetry — scan totals and step
// histograms, its own carry included — so counters read through this
// Retirer continue prev's rather than restarting from zero. Call it once,
// on a Retirer not yet shared with other goroutines, while prev is
// quiescent (the live scheme switch does both by construction).
func (r *Retirer) CarryFrom(prev *Retirer) {
	r.carry.stats = prev.Stats()
	prev.mergeHists(&r.carry.hist)
}

// mergeHists accumulates every thread's step histogram plus the carry into
// sum.
func (r *Retirer) mergeHists(sum *StepHist) {
	for i := range r.threads {
		sum.Merge(&r.threads[i].hist)
	}
	sum.Merge(&r.carry.hist)
}

// Unreclaimed reports the retired-but-not-yet-freed block count across all
// threads, the paper's reclamation-speed metric. Approximate under
// concurrency (each ring's length is published, not fenced).
func (r *Retirer) Unreclaimed() int {
	total := int64(0)
	for i := range r.threads {
		total += r.threads[i].ring.published.Load()
	}
	return int(total)
}

// RecordSteps counts one GetProtected call by tid that took steps loop
// iterations — the per-scheme protect loops feed the bounded-steps
// histograms through here. Owner-thread only.
func (r *Retirer) RecordSteps(tid int, steps uint64) {
	r.threads[tid].hist.Record(steps)
}

// MaxSteps reports the worst protect-loop iteration count any single
// GetProtected call needed, across all threads. Sample quiescently.
func (r *Retirer) MaxSteps() uint64 {
	max := r.carry.hist.Max()
	for i := range r.threads {
		if m := r.threads[i].hist.Max(); m > max {
			max = m
		}
	}
	return max
}

// StepQuantile returns the q-quantile of per-call GetProtected step counts
// across all threads (StepQuantile(0.99) is the BENCH artifact's p99).
// Sample quiescently: the histograms are owner-written.
func (r *Retirer) StepQuantile(q float64) uint64 {
	var sum StepHist
	r.mergeHists(&sum)
	return sum.Quantile(q)
}

// Stats sums the per-thread cleanup-scan telemetry. Approximate under
// concurrency; exact quiescently.
func (r *Retirer) Stats() ScanStats {
	s := r.carry.stats
	for i := range r.threads {
		t := &r.threads[i]
		s.Scans += atomic.LoadUint64(&t.stats.Scans)
		s.Blocks += atomic.LoadUint64(&t.stats.Blocks)
		s.Nanos += atomic.LoadUint64(&t.stats.Nanos)
	}
	return s
}

// A Probe is one consistent retire-side telemetry sample: the backlog, the
// cumulative scan counters and the step-histogram quantiles, gathered in a
// single pass over the per-thread state. It is the tick-sampling hook for
// trajectory recorders (internal/chaos, the bench samplers): one call per
// tick instead of four, so a sampler reads each thread's counters once.
// Like every retire-side read it is exact only quiescently; concurrent
// samples are monotonic-counter approximations, fine for trajectories.
type Probe struct {
	Unreclaimed int
	Scans       ScanStats
	MaxSteps    uint64
	P99Steps    uint64
}

// Probe gathers one telemetry sample across all threads.
func (r *Retirer) Probe() Probe {
	var p Probe
	p.Scans = r.carry.stats
	var backlog int64
	var hist StepHist
	hist.Merge(&r.carry.hist)
	for i := range r.threads {
		t := &r.threads[i]
		backlog += t.ring.published.Load()
		p.Scans.Scans += atomic.LoadUint64(&t.stats.Scans)
		p.Scans.Blocks += atomic.LoadUint64(&t.stats.Blocks)
		p.Scans.Nanos += atomic.LoadUint64(&t.stats.Nanos)
		hist.Merge(&t.hist)
	}
	p.Unreclaimed = int(backlog)
	p.MaxSteps = hist.Max()
	p.P99Steps = hist.Quantile(0.99)
	return p
}

// ring is a single-writer circular retire list: the owning tid pushes
// retired handles at the tail and the scan drains from the head, re-pushing
// survivors — steady-state churn reuses one power-of-two buffer with no
// per-scan compaction or reallocation. Only the published length is read
// cross-thread.
type ring struct {
	buf       []mem.Handle
	head      uint64 // next pop position (monotonic; masked on access)
	tail      uint64 // next push position
	settled   int    // consecutive scans ending under a quarter of capacity
	published atomic.Int64
}

const (
	minRingCap = 64
	// shrinkAfter is the number of consecutive post-scan occupancy checks
	// under a quarter of capacity before the ring halves. A churn spike
	// grows a ring to its highwater; without shrinking it would hold that
	// buffer for the rest of the domain's life, so once the spike clearly
	// settles (not one lucky scan — several in a row) the capacity follows
	// the backlog back down, one halving per settled window.
	shrinkAfter = 4
)

func (q *ring) len() int { return int(q.tail - q.head) }

func (q *ring) push(h mem.Handle) {
	if int(q.tail-q.head) == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&uint64(len(q.buf)-1)] = h
	q.tail++
}

func (q *ring) pop() mem.Handle {
	h := q.buf[q.head&uint64(len(q.buf)-1)]
	q.head++
	return h
}

// publish stores the current length for cross-thread readers (Unreclaimed).
func (q *ring) publish() { q.published.Store(int64(q.tail - q.head)) }

// grow doubles the buffer (from minRingCap), linearizing head to index 0 so
// the power-of-two masking stays valid. Growing resets the settle streak: a
// ring that just grew is at its churn highwater, not settling.
func (q *ring) grow() {
	q.resize(max(len(q.buf)*2, minRingCap))
	q.settled = 0
}

// maybeShrink halves the buffer once occupancy has stayed under a quarter
// of capacity for shrinkAfter consecutive scans — the shrink-on-settle
// counterpart of grow, called at the end of each cleanup scan. The quarter
// threshold keeps the halved ring at most half full, so a shrink can never
// force the very next push to grow; minRingCap floors the descent.
func (q *ring) maybeShrink() {
	if len(q.buf) <= minRingCap || q.len() >= len(q.buf)/4 {
		q.settled = 0
		return
	}
	if q.settled++; q.settled < shrinkAfter {
		return
	}
	q.resize(len(q.buf) / 2)
	q.settled = 0
}

// resize moves the live entries into a buffer of capacity n (a power of
// two ≥ len), linearizing head to index 0 so the masking stays valid.
func (q *ring) resize(n int) {
	nb := make([]mem.Handle, n)
	cnt := int(q.tail - q.head)
	for i := 0; i < cnt; i++ {
		nb[i] = q.buf[(q.head+uint64(i))&uint64(len(q.buf)-1)]
	}
	q.buf, q.head, q.tail = nb, 0, uint64(cnt)
}

// Snapshot is the reservation snapshot one cleanup scan gathers and judges
// against. The Retirer owns and reuses the buffers; a Judge appends eras or
// intervals during Gather and queries membership during CanFree, through
// the one judge of its reservation shape (EraReserved, IntervalReserved,
// HandleReserved). After the gather the runtime seals the snapshot: above
// the sort cutoff the endpoint slices are sorted once (after the gather,
// preserving any lemma-mandated read order) and membership binary-searches
// them; below it membership keeps the linear sweep.
type Snapshot struct {
	los, his []uint64
	aux      [2]uint64
	paired   bool
	linear   bool
}

func (s *Snapshot) reset() {
	s.los = s.los[:0]
	s.his = s.his[:0]
	s.aux = [2]uint64{}
	s.paired = false
	s.linear = false
}

// seal fixes the scan mode and sorts the gathered endpoints if binary
// search will be used.
func (s *Snapshot) seal(cutoff int) {
	s.linear = len(s.los) < cutoff
	if !s.linear {
		slices.Sort(s.los)
		if s.paired {
			slices.Sort(s.his)
		}
	}
}

// AddEra appends a point reservation (an era, an epoch, or a raw handle
// for identity schemes).
func (s *Snapshot) AddEra(e uint64) { s.los = append(s.los, e) }

// AddInterval appends an interval reservation [lo, hi]. The pairing by
// index survives until seal sorts the endpoint slices independently (the
// counting membership test never needs it back).
func (s *Snapshot) AddInterval(lo, hi uint64) {
	s.los = append(s.los, lo)
	s.his = append(s.his, hi)
	s.paired = true
}

// SetAux stashes a per-scan scalar (i in 0..1): EBR keeps the scan's epoch
// here, WFE its helping-in-flight flag.
func (s *Snapshot) SetAux(i int, v uint64) { s.aux[i] = v }

// Aux reads a per-scan scalar stored by SetAux.
func (s *Snapshot) Aux(i int) uint64 { return s.aux[i] }

// EraReserved reports whether any gathered point reservation lands in the
// closed lifespan [lo, hi] — the judge of the era-point schemes (HE, WFE).
func (s *Snapshot) EraReserved(lo, hi uint64) bool {
	if s.linear {
		return eraReservedLinear(s.los, lo, hi)
	}
	return reservedInRange(s.los, lo, hi)
}

// IntervalReserved reports whether any gathered reservation interval
// overlaps the closed lifespan [birth, retire] — the judge of the interval
// schemes (2GEIBR, WFE-IBR).
func (s *Snapshot) IntervalReserved(birth, retire uint64) bool {
	if s.linear {
		return intervalReservedLinear(s.los, s.his, birth, retire)
	}
	return intervalsOverlap(s.los, s.his, birth, retire)
}

// HandleReserved reports whether the exact value h was gathered — the
// identity membership of Hazard Pointers (a degenerate [h, h] lifespan).
func (s *Snapshot) HandleReserved(h uint64) bool { return s.EraReserved(h, h) }

// eraReservedLinear is the O(G) point-reservation sweep: the scan below
// the sort cutoff, and the reference oracle of reservedInRange.
func eraReservedLinear(eras []uint64, lo, hi uint64) bool {
	for _, e := range eras {
		if lo <= e && hi >= e {
			return true
		}
	}
	return false
}

// intervalReservedLinear is the O(G) sweep over paired interval
// endpoints: the scan below the sort cutoff, and the reference oracle of
// intervalsOverlap.
func intervalReservedLinear(los, his []uint64, birth, retire uint64) bool {
	for i := range los {
		if birth <= his[i] && retire >= los[i] {
			return true
		}
	}
	return false
}
