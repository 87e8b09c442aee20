// Package chaos is the schedule-injection harness: it drives the public
// structures across the reclamation schemes under the hostile schedules
// the paper's robustness argument is about — a reader stalled while
// holding a guard, a writer preempted with its retire ring undrained,
// oversubscription with workers ≫ guards, and bursty churn punctuated by
// stall spikes — and records the per-tick telemetry trajectory each
// scheme produces under them.
//
// The engine's job is to make the paper's Table 1 distinction observable
// and assertable: under a stalled reader, epoch-based reclamation's
// backlog grows without bound for as long as the stall lasts, while the
// hazard-pointer- and era-class schemes cap it (HP at the protected
// handles, the era/interval schemes at the live set when the stall
// began). A preempted writer, by contrast, strands only its own ring in
// every scheme. Canned.Check judges one trajectory against that matrix;
// the root chaos tests and cmd/wfestress -chaos both call it.
//
// Determinism: every scenario runs on a single goroutine that
// round-robins the workers tick by tick, each worker leasing a guard for
// the tick and drawing from its own seeded xorshift stream. Hostility
// comes from reservation state (a pinned epoch or era) and from guard
// scarcity (a worker that finds every guard held parks and sits the tick
// out), not from real parallelism, so the same seed reproduces the
// identical trajectory byte for byte — the property that makes the
// robustness matrix a unit test instead of a flaky stress.
//
// Trajectories serialize as "wfe-chaos/v1" JSON (cmd/wfestress -chaos
// writes them; cmd/wfemon reads them) and convert losslessly to the
// advisor package's sample stream. Each tick row declares its columns
// here and fills them from the Domain's Telemetry.
package chaos

import (
	"context"
	"fmt"

	"wfe"
	"wfe/advisor"
	"wfe/internal/quiesce"
)

// Schema identifies the trajectory JSON layout.
const Schema = "wfe-chaos/v1"

// StallKind says what a stalled worker was doing when the scheduler
// stopped running it.
type StallKind int

const (
	// StallReader parks the worker while it holds a live reservation: its
	// guard has begun an operation and protects the hot cell's node. This
	// is the schedule that separates the schemes — the reservation pins
	// EBR's epoch (unbounded backlog) but only a bounded set of blocks
	// for the HP/era/interval schemes.
	StallReader StallKind = iota
	// StallWriter parks the worker between operations, with retired
	// blocks stranded in its undrained retire ring but no reservation
	// held. Every scheme stays bounded under it: the ring holds at most
	// its occupancy at the stall, and nobody else's reclamation waits on
	// the stalled thread.
	StallWriter
)

func (k StallKind) String() string {
	switch k {
	case StallReader:
		return "reader"
	case StallWriter:
		return "writer"
	}
	return fmt.Sprintf("StallKind(%d)", int(k))
}

// A StallSpec stalls one worker for the tick window [From, To).
type StallSpec struct {
	Worker int       `json:"worker"`
	From   int       `json:"from"`
	To     int       `json:"to"`
	Kind   StallKind `json:"kind"`
}

// A Scenario is one schedule the harness can inject, over any scheme.
type Scenario struct {
	Name       string      `json:"name"`
	Seed       uint64      `json:"seed"`
	Ticks      int         `json:"ticks"`
	Workers    int         `json:"workers"`
	OpsPerTick int         `json:"ops_per_tick"` // structure ops per worker per tick
	KeyRange   uint64      `json:"key_range"`    // hashmap key universe (bounds the live set)
	Stalls     []StallSpec `json:"stalls,omitempty"`

	// PutHeavy selects the exhaustion-storm op mix: workers churn the map
	// through TryPutGuarded (put-dominated, no reader stalls). Every mix
	// counts the writes that surface ErrArenaExhausted in
	// Summary.AllocFailures. Pair it with an undersized Capacity and a
	// lazy CleanupFreq so allocation outruns the scan cadence and the
	// Domain's emergency-reclamation pipeline is the only thing keeping
	// the workload alive.
	PutHeavy bool `json:"put_heavy,omitempty"`

	// Domain tuning. Zero values take the chaos defaults below (not the
	// Domain defaults: chaos wants aggressive scan/era cadence so a
	// short scenario exercises many reclamation cycles). MaxGuards
	// defaults to Workers; below it, the workers that find every guard
	// held park for the tick.
	MaxGuards   int  `json:"max_guards,omitempty"`
	CleanupFreq int  `json:"cleanup_freq,omitempty"`
	EraFreq     int  `json:"era_freq,omitempty"`
	Capacity    int  `json:"capacity,omitempty"`
	SpillSize   int  `json:"spill_size,omitempty"`
	Debug       bool `json:"debug,omitempty"`
}

// Chaos defaults: scan and era cadence aggressive enough that a ~60-tick
// scenario spans dozens of cleanup scans, an arena comfortably above the
// worst accumulation the canned scenarios produce, and the Debug arena on
// so a reclamation bug fails the run loudly instead of corrupting it.
const (
	defaultTicks       = 60
	defaultWorkers     = 3
	defaultOpsPerTick  = 120
	defaultKeyRange    = 256
	defaultCleanupFreq = 4
	defaultEraFreq     = 8
	defaultCapacity    = 1 << 16
)

func (s Scenario) withDefaults() Scenario {
	if s.Ticks == 0 {
		s.Ticks = defaultTicks
	}
	if s.Workers == 0 {
		s.Workers = defaultWorkers
	}
	if s.OpsPerTick == 0 {
		s.OpsPerTick = defaultOpsPerTick
	}
	if s.KeyRange == 0 {
		s.KeyRange = defaultKeyRange
	}
	if s.MaxGuards == 0 {
		s.MaxGuards = s.Workers
	}
	if s.CleanupFreq == 0 {
		s.CleanupFreq = defaultCleanupFreq
	}
	if s.EraFreq == 0 {
		s.EraFreq = defaultEraFreq
	}
	if s.Capacity == 0 {
		s.Capacity = defaultCapacity
	}
	return s
}

// A TickSample is one wfe-chaos/v1 tick row: the Domain's cumulative
// telemetry at the end of the tick, plus whether any injected stall was
// active during it.
type TickSample struct {
	Tick        int    `json:"tick"`
	Stalled     bool   `json:"stalled"`
	Unreclaimed int    `json:"unreclaimed"` // retired blocks not yet recycled
	ScanScans   uint64 `json:"scan_scans"`  // cumulative cleanup scans
	ScanBlocks  uint64 `json:"scan_blocks"` // cumulative retired blocks examined
	MaxSteps    uint64 `json:"max_steps"`   // worst GetProtected step count so far
	P99Steps    uint64 `json:"p99_steps"`   // p99 GetProtected step count so far
	Allocs      uint64 `json:"allocs"`      // cumulative block allocations
	Frees       uint64 `json:"frees"`       // cumulative blocks recycled
	InUse       uint64 `json:"in_use"`      // Allocs - Frees
	GuardParks  uint64 `json:"guard_parks"` // cumulative parked guard acquisitions

	// Backpressure and batch columns are omitted from JSON when zero, so
	// trajectories recorded before the emergency pipeline and the batch
	// paths existed stay byte-identical.
	Capacity       int    `json:"capacity,omitempty"`        // arena size in blocks
	EmergencyScans uint64 `json:"emergency_scans,omitempty"` // cumulative out-of-cadence scans
	BatchOps       uint64 `json:"batch_ops,omitempty"`       // cumulative completed batches
	BatchedItems   uint64 `json:"batched_items,omitempty"`   // cumulative items those batches carried
}

// tickSample fills one tick row from the Domain's Telemetry.
func tickSample(tick int, stalled bool, t wfe.Telemetry) TickSample {
	return TickSample{
		Tick:           tick,
		Stalled:        stalled,
		Unreclaimed:    t.Unreclaimed,
		ScanScans:      t.ScanScans,
		ScanBlocks:     t.ScanBlocks,
		MaxSteps:       t.MaxSteps,
		P99Steps:       t.P99Steps,
		Allocs:         t.Allocs,
		Frees:          t.Frees,
		InUse:          t.InUse,
		GuardParks:     t.GuardParks,
		Capacity:       t.Capacity,
		EmergencyScans: t.EmergencyScans,
		BatchOps:       t.BatchOps,
		BatchedItems:   t.BatchedItems,
	}
}

// A Summary is the trajectory's headline numbers, precomputed so matrix
// assertions and the CLI don't re-derive them.
type Summary struct {
	UnreclaimedMax     int    `json:"unreclaimed_max"`
	UnreclaimedMaxTick int    `json:"unreclaimed_max_tick"`
	UnreclaimedFinal   int    `json:"unreclaimed_final"` // after stalls lifted and the domain settled
	Scans              uint64 `json:"scans"`
	ScanBlocks         uint64 `json:"scan_blocks"`
	Parks              uint64 `json:"parks"`
	// Backpressure numbers (omitted from JSON when zero, so trajectories
	// recorded before the emergency pipeline existed stay byte-identical):
	// allocations that entered the Domain's emergency pipeline, the
	// out-of-cadence scans it ran, and the operations that still surfaced
	// ErrArenaExhausted after it (only the Leak baseline, which has no
	// judge to scan with, should ever count failures).
	AllocStalls    uint64 `json:"alloc_stalls,omitempty"`
	EmergencyScans uint64 `json:"emergency_scans,omitempty"`
	AllocFailures  uint64 `json:"alloc_failures,omitempty"`
	// Quiesce is the post-run quiesce.Check verdict: "" if the drained
	// domain settled clean (guards all home, arena census exact, backlog
	// collapsed — not asserted for Leak), else the violation.
	Quiesce string `json:"quiesce,omitempty"`
}

// A Trajectory is one (scenario, scheme) run's recorded telemetry.
type Trajectory struct {
	Schema   string       `json:"schema"`
	Scenario string       `json:"scenario"`
	Scheme   string       `json:"scheme"`
	Seed     uint64       `json:"seed"`
	Ticks    []TickSample `json:"ticks"`
	Summary  Summary      `json:"summary"`
}

// Samples converts the trajectory to the advisor's sample stream.
func (t *Trajectory) Samples() []advisor.Sample {
	out := make([]advisor.Sample, len(t.Ticks))
	for i, ts := range t.Ticks {
		pressure := 0.0
		if ts.Capacity > 0 {
			pressure = float64(ts.InUse) / float64(ts.Capacity)
		}
		out[i] = advisor.Sample{
			Tick:           ts.Tick,
			Unreclaimed:    ts.Unreclaimed,
			ScanScans:      ts.ScanScans,
			ScanBlocks:     ts.ScanBlocks,
			P99Steps:       ts.P99Steps,
			GuardParks:     ts.GuardParks,
			Pressure:       pressure,
			EmergencyScans: ts.EmergencyScans,
		}
	}
	return out
}

// xorshift64 is the harness's deterministic per-worker stream.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// Run executes the scenario over the given scheme and returns the
// recorded trajectory. The Domain is created, driven, drained, settled
// and census-checked inside the call.
func Run(kind wfe.SchemeKind, s Scenario) (*Trajectory, error) {
	s = s.withDefaults()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      kind,
		Capacity:    s.Capacity,
		MaxGuards:   s.MaxGuards,
		CleanupFreq: s.CleanupFreq,
		EraFreq:     s.EraFreq,
		SpillSize:   s.SpillSize,
		Debug:       s.Debug,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos %q/%s: %w", s.Name, kind, err)
	}
	traj := &Trajectory{
		Schema:   Schema,
		Scenario: s.Name,
		Scheme:   kind.String(),
		Seed:     s.Seed,
	}
	run(d, s, traj)
	summarize(d, kind, traj)
	return traj, nil
}

// worker is one deterministic actor: a seeded stream, the guard it holds
// (leased for one tick, or kept across a stall; nil while it has none),
// and its stall state.
type worker struct {
	g       *wfe.Guard[uint64]
	rng     xorshift64
	stalled bool
	kind    StallKind
}

// hotSlot is the guard protection slot the engine uses for the shared hot
// cell; the built-in structures use slots 0..3, so the stalled reader's
// held protection survives any op the worker runs after the stall lifts.
const hotSlot = 7

// parked is an already-cancelled context. AcquireGuard under it returns
// at once when every guard is held, after the pool counts the attempt as
// one park: a worker that finds the pool empty parks and sits the tick
// out, with no timing involved.
var parked = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// run is the engine: one goroutine round-robins the workers tick by tick.
// At the start of a tick every worker not stalled leases a guard. The
// lease order starts with the first worker that parked the tick before,
// so when guards are scarce the workers take turns. The leaseholders each
// run OpsPerTick hashmap operations (plus one hot-cell replacement per
// tick) and return their guards in reverse lease order. A stalled worker
// keeps the guard it held when the stall began; when the stall lifts it
// runs on that guard and returns it with the others.
func run(d *wfe.Domain[uint64], s Scenario, traj *Trajectory) {
	m := wfe.NewHashMap[uint64](d, 64)
	var hot wfe.Atomic[uint64] // the shared cell stalled readers protect

	workers := make([]*worker, s.Workers)
	for i := range workers {
		rng := xorshift64(s.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		if rng == 0 {
			rng = 1
		}
		workers[i] = &worker{rng: rng}
	}
	running := make([]*worker, 0, s.Workers)

	start, stallsActive := 0, 0
	for tick := 0; tick < s.Ticks; tick++ {
		// Stalls ending this tick: a lifted reader drops its reservation,
		// and the worker runs the tick on the guard it kept.
		for _, sp := range s.Stalls {
			if sp.Worker < 0 || sp.Worker >= len(workers) {
				continue
			}
			if w := workers[sp.Worker]; sp.To == tick && w.stalled && w.kind == sp.Kind {
				if sp.Kind == StallReader {
					w.g.End()
				}
				w.stalled = false
				stallsActive--
			}
		}
		running = running[:0]
		firstParked := -1
		for k := range workers {
			i := (start + k) % len(workers)
			w := workers[i]
			if w.stalled {
				continue // keeps its guard
			}
			if w.g == nil {
				g, err := d.AcquireGuard(parked)
				if err != nil {
					if firstParked < 0 {
						firstParked = i
					}
					continue
				}
				w.g = g
			}
			running = append(running, w)
		}
		if firstParked >= 0 {
			start = firstParked // the parked go first next tick
		}
		// Stalls beginning this tick catch a worker holding its lease; it
		// keeps the guard until the stall lifts.
		for _, sp := range s.Stalls {
			if sp.Worker < 0 || sp.Worker >= len(workers) {
				continue
			}
			if w := workers[sp.Worker]; sp.From == tick && !w.stalled && w.g != nil {
				w.stalled, w.kind = true, sp.Kind
				stallsActive++
				if sp.Kind == StallReader {
					// The stall catches the reader mid-operation: its
					// reservation is live and it protects the hot node.
					w.g.Begin()
					w.g.Protect(&hot, hotSlot)
				}
			}
		}
		for wi, w := range workers {
			if w.stalled || w.g == nil {
				continue
			}
			// Hot-cell churn: replace the shared node so a stalled
			// reader's protection pins a block other workers retire. The
			// put-heavy storm skips it — it has no reader stalls, and the
			// unconditional Alloc would panic on its undersized arena.
			if !s.PutHeavy && tick%len(workers) == wi {
				old := w.g.Protect(&hot, hotSlot)
				repl := w.g.Alloc(w.rng.next())
				if hot.CompareAndSwap(old, repl) {
					if !old.IsNil() {
						w.g.Retire(old)
					}
				} else {
					w.g.Dealloc(repl)
				}
			}
			for i := 0; i < s.OpsPerTick; i++ {
				key := w.rng.next() % s.KeyRange
				if s.PutHeavy {
					// Put-dominated churn through the backpressure API:
					// every put on a present key allocates a replacement
					// and retires the old node, so allocation pressure
					// tracks the op rate, not the live set.
					switch w.rng.next() % 10 {
					case 0, 1, 2, 3, 4, 5, 6:
						if err := m.TryPutGuarded(w.g, key, w.rng.next()); err != nil {
							traj.Summary.AllocFailures++
						}
					case 7:
						m.DeleteGuarded(w.g, key)
					default:
						m.GetGuarded(w.g, key)
					}
					continue
				}
				switch w.rng.next() % 10 {
				case 0, 1, 2, 3:
					if _, err := m.TryInsertGuarded(w.g, key, key); err != nil {
						traj.Summary.AllocFailures++
					}
				case 4, 5, 6, 7:
					m.DeleteGuarded(w.g, key)
				default:
					m.GetGuarded(w.g, key)
				}
			}
		}
		// Returning in reverse lease order restores the pool's LIFO
		// freelist, so a worker leasing from the same position next tick
		// gets the same guard back and its allocations are paid for by
		// the blocks its own retire ring frees. The exhaustion storm
		// depends on that: an emergency scan reads only the allocating
		// guard's ring.
		for i := len(running) - 1; i >= 0; i-- {
			if w := running[i]; !w.stalled {
				w.g.Release()
				w.g = nil
			}
		}
		traj.Ticks = append(traj.Ticks, tickSample(tick, stallsActive > 0, d.Telemetry()))
	}
	// Lift any stall still open at the end, then drain the structure and
	// the hot cell so the post-run settle can collapse the backlog.
	for _, w := range workers {
		if w.g != nil {
			w.g.Release()
		}
	}
	g := d.Guard()
	for key := uint64(0); key < s.KeyRange; key++ {
		m.DeleteGuarded(g, key)
	}
	if old := g.Protect(&hot, hotSlot); !old.IsNil() && hot.CompareAndSwap(old, wfe.Ref[uint64]{}) {
		g.Retire(old)
	}
	g.Release()
}

// summarize settles the drained domain, runs the shared quiesce census
// check, and folds the trajectory's headline numbers into the summary.
func summarize(d *wfe.Domain[uint64], kind wfe.SchemeKind, traj *Trajectory) {
	quiesce.Settle(d)
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		traj.Summary.Quiesce = err.Error()
	}
	traj.Summary.UnreclaimedFinal = d.Unreclaimed()
	for _, ts := range traj.Ticks {
		if ts.Unreclaimed > traj.Summary.UnreclaimedMax {
			traj.Summary.UnreclaimedMax = ts.Unreclaimed
			traj.Summary.UnreclaimedMaxTick = ts.Tick
		}
	}
	if n := len(traj.Ticks); n > 0 {
		last := traj.Ticks[n-1]
		traj.Summary.Scans = last.ScanScans
		traj.Summary.ScanBlocks = last.ScanBlocks
		traj.Summary.Parks = last.GuardParks
	}
	tel := d.Telemetry()
	traj.Summary.AllocStalls = tel.AllocStalls
	traj.Summary.EmergencyScans = tel.EmergencyScans
}
