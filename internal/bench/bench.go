// Package bench is the paper's evaluation harness (§5): it drives the
// shipped public structures on a wfe.Domain under every reclamation
// scheme, sweeping thread counts, and reports the two series every figure
// plots — throughput (Mops/s) and the number of unreclaimed objects — plus
// the ablations.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

// Workload is an operation mix in percent (summing to 100).
type Workload struct {
	Name                           string
	Insert, Delete, GetPct, PutPct int
}

// The paper's two mixes (§5).
var (
	WriteHeavy = Workload{Name: "50i/50d", Insert: 50, Delete: 50}
	ReadMostly = Workload{Name: "90g/10p", GetPct: 90, PutPct: 10}
)

// Do applies one operation of the mix to kv through g: pick, drawn from
// [0, 100), selects insert, delete, get or put by the mix's percentages.
func (w Workload) Do(kv PublicKV, g *wfe.Guard[uint64], pick int, key uint64) {
	switch {
	case pick < w.Insert:
		kv.Insert(g, key)
	case pick < w.Insert+w.Delete:
		kv.Remove(g, key)
	case pick < w.Insert+w.Delete+w.GetPct:
		kv.Get(g, key)
	default:
		kv.Put(g, key)
	}
}

// Experiment describes one paper figure (one data structure × workload).
type Experiment struct {
	ID       string // "5a", "6", ...
	Title    string
	DS       string // BuildPublicKV name
	Workload Workload
	Schemes  []string
}

var allSchemes = []string{"WFE", "HE", "HP", "EBR", "2GEIBR", "Leak"}

// Experiments indexes every figure in the paper's evaluation. Figures with
// two panels (throughput / unreclaimed) are one experiment here: Run
// reports both metrics. The paper's sorted linked list is a one-bucket
// HashMap: a single Harris–Michael chain.
var Experiments = []Experiment{
	{ID: "5a", Title: "KP queue (WFQueue), 50% insert / 50% delete", DS: "wfqueue", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "5c", Title: "CRTurn queue (TurnQueue), 50% insert / 50% delete", DS: "turnqueue", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "6", Title: "Linked list (one-bucket HashMap), 50% insert / 50% delete", DS: "list", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "7", Title: "Hash map, 50% insert / 50% delete", DS: "hashmap", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "8", Title: "Natarajan BST (Tree), 50% insert / 50% delete", DS: "tree", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "9", Title: "Linked list (one-bucket HashMap), 90% get / 10% put", DS: "list", Workload: ReadMostly, Schemes: allSchemes},
	{ID: "10", Title: "Hash map, 90% get / 10% put", DS: "hashmap", Workload: ReadMostly, Schemes: allSchemes},
	{ID: "11", Title: "Natarajan BST (Tree), 90% get / 10% put", DS: "tree", Workload: ReadMostly, Schemes: allSchemes},
}

// FindExperiment resolves a figure id ("5a" and "5b" map to the same
// experiment, as do "5c"/"5d" — the letters select the panel).
func FindExperiment(id string) (Experiment, error) {
	switch id {
	case "5b":
		id = "5a"
	case "5d":
		id = "5c"
	}
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown figure %q", id)
}

// Options are the sweep parameters, defaulting to the paper's values with a
// shorter duration (the -paper flag of cmd/wfebench restores 10s × 5).
type Options struct {
	Threads     []int         // thread counts to sweep
	Duration    time.Duration // per measurement
	Repeat      int           // repetitions (best Mops reported, like the paper's max-of-5)
	Prefill     int           // initial elements (paper: 50000)
	KeyRange    uint64        // keys drawn uniformly from [0, KeyRange) (paper: 100000)
	EraFreq     int           // ν (paper: 150)
	CleanupFreq int           // retire scan frequency (paper: 30)
	MaxAttempts int           // WFE fast-path attempts (paper: 16)
	Capacity    int           // arena slots; 0 sizes automatically
	// StallThreads makes the first N workers stall inside an operation
	// (a pinned guard parked between Begin and End, holding one
	// protection) for the whole run — the preempted-reader scenario of
	// ablation A4.
	StallThreads int
	// Pin wires each worker to an OS thread (runtime.LockOSThread),
	// approximating the paper's pinned-thread methodology.
	Pin bool
	// Observe, when non-nil, is called at the start of every measured run
	// with a label ("figure/scheme/tN") and the run's Domain.Telemetry,
	// which stays valid for the run and afterwards (the counters freeze
	// when the run ends). cmd/wfebench's -metrics flag registers each
	// closure with a metrics.Registry so a scraper watches the sweep point
	// by point.
	Observe func(label string, tel func() wfe.Telemetry)
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if len(o.Threads) == 0 {
		for t := 1; t <= runtime.GOMAXPROCS(0); t *= 2 {
			o.Threads = append(o.Threads, t)
		}
	}
	if o.Duration == 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Repeat == 0 {
		o.Repeat = 1
	}
	if o.Prefill == 0 {
		o.Prefill = 50000
	}
	if o.KeyRange == 0 {
		o.KeyRange = 100000
	}
	if o.EraFreq == 0 {
		o.EraFreq = 150
	}
	if o.CleanupFreq == 0 {
		o.CleanupFreq = 30
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 16
	}
	return o
}

// Result is one measured point (one scheme at one thread count). The
// json tags name the fields in the BENCH_*.json trajectory artifact.
type Result struct {
	Figure         string  `json:"figure"`
	DS             string  `json:"ds"`
	Workload       string  `json:"workload"`
	Scheme         string  `json:"scheme"`
	Threads        int     `json:"threads"`
	Mops           float64 `json:"mops"`
	Ops            uint64  `json:"ops"`              // total operations completed
	Unreclaimed    float64 `json:"unreclaimed_mean"` // mean sampled retired-not-freed blocks
	UnreclaimedMax int     `json:"unreclaimed_max"`  // highwater of the same samples
	SlowPaths      uint64  `json:"slow_paths"`       // WFE/WFE-IBR only: slow-path entries during measurement
	MaxSteps       uint64  `json:"max_steps"`        // worst GetProtected step count (every protecting scheme)
	P99Steps       uint64  `json:"p99_steps"`        // p99 GetProtected step count (every protecting scheme)
	ScanScans      uint64  `json:"scan_scans"`       // cleanup scans run (all schemes, via the shared retire runtime)
	ScanBlocks     uint64  `json:"scan_blocks"`      // retired blocks those scans examined
	ScanNanos      uint64  `json:"scan_nanos"`       // total nanoseconds spent in cleanup scans
	Exhausted      bool    `json:"exhausted"`        // arena filled up mid-run (Leak with long durations)
}

// ScanNsPerBlock is the mean cleanup cost per examined retired block, the
// scan ablation's primary metric.
func (r Result) ScanNsPerBlock() float64 {
	if r.ScanBlocks == 0 {
		return 0
	}
	return float64(r.ScanNanos) / float64(r.ScanBlocks)
}

// Run sweeps one experiment and returns a result per scheme × thread count.
func Run(exp Experiment, opt Options) []Result { return sweep(exp, opt, 0) }

// sweep is Run with the Domains' Options.SortCutoff (0: the default).
func sweep(exp Experiment, opt Options, sortCutoff int) []Result {
	opt = opt.Defaults()
	var results []Result
	clamped := false
	for _, threads := range opt.Threads {
		if exp.DS == "turnqueue" && threads > MaxTurnGuards {
			// The claim word holds at most 254 tids: measure the clamped
			// point once, not once per excessive thread count.
			if clamped {
				continue
			}
			threads, clamped = MaxTurnGuards, true
		}
		for _, scheme := range exp.Schemes {
			best := Result{}
			for rep := 0; rep < opt.Repeat; rep++ {
				r := runOne(exp, scheme, threads, opt, sortCutoff)
				if r.Mops > best.Mops || rep == 0 {
					best = r
				}
			}
			results = append(results, best)
		}
	}
	return results
}

// prefillKeys draws distinct random keys in ascending order (the paper
// prefills 50K elements from the key range).
func prefillKeys(n int, keyRange uint64, rng *rand.Rand) []uint64 {
	if uint64(n) > keyRange {
		n = int(keyRange)
	}
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := uint64(rng.Int63n(int64(keyRange)))
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Prefill loads n elements into a freshly built structure through one
// pinned guard, the paper's §5 methodology: queues get n random
// enqueues, the search structures n distinct keys from [0, keyRange).
// Hash-map chains are sorted ascending, so the keys go in descending order
// and each insert lands at its chain's head — the one-chain list of
// Figures 6/9 fills in linear rather than quadratic time. The tree gets
// them shuffled: sorted insertion would degenerate the external BST into
// a list, and the measurement with it.
func Prefill(d *wfe.Domain[uint64], kv PublicKV, ds string, n int, keyRange uint64) {
	g := d.Pin()
	defer d.Unpin(g)
	rng := rand.New(rand.NewSource(12345))
	if IsQueue(ds) {
		for i := 0; i < n; i++ {
			kv.Insert(g, uint64(rng.Int63n(int64(keyRange))))
		}
		return
	}
	keys := prefillKeys(n, keyRange, rng)
	if ds == "tree" {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	} else {
		slices.Reverse(keys)
	}
	for _, k := range keys {
		kv.Insert(g, k)
	}
}

func arenaCapacity(scheme string, opt Options, threads int) int {
	if opt.Capacity != 0 {
		return opt.Capacity
	}
	// Live set + retired backlog headroom. The leak baseline burns one slot
	// per insert for the whole run; give it the largest arena that still
	// fits comfortably in memory and let Exhausted flag truncated runs.
	if scheme == "Leak" {
		return 1 << 22
	}
	// The 8×prefill term is four times the largest prefill footprint,
	// the tree's leaf and routing node per key; every other structure
	// spends one block per value. The flat headroom term absorbs the
	// retired-but-not-yet-freed backlog of the epoch- and interval-based
	// schemes, which can spike past 100K blocks when a worker is
	// descheduled mid-epoch on a loaded machine — undersizing here shows up
	// as flaky Exhausted results, not as a measurement.
	return 8*opt.Prefill + threads*4096 + 1<<18
}

// StallReader is the paper's preempted reader (ablation A4): it pins a
// guard, enters an operation and protects one block, then parks there
// until done reports true — holding its reservation the whole time, so
// EBR's epoch cannot advance past it while the bounded schemes keep
// reclaiming around it. On return the block is retired and the guard
// unpinned.
func StallReader(d *wfe.Domain[uint64], done func() bool) {
	g := d.Pin()
	defer d.Unpin(g)
	var root wfe.Atomic[uint64]
	root.Store(g.Alloc(0))
	g.Begin()
	g.Protect(&root, 0)
	for !done() {
		time.Sleep(time.Millisecond)
	}
	g.End()
	g.Retire(root.Load())
}

func runOne(exp Experiment, schemeName string, threads int, opt Options, sortCutoff int) Result {
	kind, forceSlow, err := ParseScheme(schemeName)
	if err != nil {
		panic(err)
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      arenaCapacity(schemeName, opt, threads),
		MaxGuards:     threads,
		EraFreq:       opt.EraFreq,
		CleanupFreq:   opt.CleanupFreq,
		MaxAttempts:   opt.MaxAttempts,
		SortCutoff:    sortCutoff,
		ForceSlowPath: forceSlow,
	})
	if err != nil {
		panic(err)
	}
	if opt.Observe != nil {
		opt.Observe(fmt.Sprintf("%s/%s/t%d", exp.ID, schemeName, threads), d.Telemetry)
	}
	kv := BuildPublicKV(exp.DS, d, opt.KeyRange)
	Prefill(d, kv, exp.DS, opt.Prefill, opt.KeyRange)

	var (
		stop      atomic.Bool
		exhausted atomic.Bool
		opsByTid  = make([]uint64, threads)
	)
	// Prefill runs cleanup scans against a nearly empty reservation set;
	// baseline them away so the counters describe the measured window
	// only (the step quantiles stay whole-run: a max cannot be baselined
	// and prefill's uncontended reads all take one step).
	base := d.Telemetry()

	// Unreclaimed sampler (the paper's second panel).
	var samples []int
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			samples = append(samples, d.Unreclaimed())
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			if opt.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			ops := uint64(0)
			// Record the count even on the panic path below, so Exhausted
			// rows are not undercounted by the dying worker's share.
			defer func() { opsByTid[tid] = ops }()
			defer func() {
				if r := recover(); r != nil {
					// A full arena is a measured outcome where memory is
					// unbounded by design: the leak baseline, and EBR behind
					// a stalled reader. Any other panic is a real bug and
					// must crash the sweep, not be masked as an Exhausted
					// row.
					if !arenaExhausted(r) || (kind != wfe.Leak && opt.StallThreads == 0) {
						panic(r)
					}
					exhausted.Store(true)
					stop.Store(true)
				}
			}()
			// pprof labels tag every profile sample a -metrics scrape
			// collects with which sweep point it belongs to.
			phase := "measure"
			if tid < opt.StallThreads {
				phase = "stalled"
			}
			pprof.Do(context.Background(), pprof.Labels(
				"scheme", schemeName, "structure", exp.DS, "phase", phase,
			), func(context.Context) {
				if tid < opt.StallThreads {
					StallReader(d, func() bool {
						if time.Since(start) > opt.Duration {
							stop.Store(true)
						}
						return stop.Load()
					})
					return
				}
				g := d.Pin()
				defer d.Unpin(g)
				r := rand.New(rand.NewSource(int64(tid)*7919 + 1))
				for !stop.Load() {
					exp.Workload.Do(kv, g, r.Intn(100), uint64(r.Int63n(int64(opt.KeyRange))))
					ops++
					if ops&63 == 0 && time.Since(start) > opt.Duration {
						stop.Store(true)
					}
				}
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	<-samplerDone

	var totalOps uint64
	for _, n := range opsByTid {
		totalOps += n
	}
	// The workers are joined: the owner-written step histograms and scan
	// counters are safe to sample now.
	tel := d.Telemetry()
	unreclaimed, unreclaimedMax := float64(tel.Unreclaimed), tel.Unreclaimed
	if len(samples) > 0 {
		sum := 0
		unreclaimedMax = 0
		for _, s := range samples {
			sum += s
			unreclaimedMax = max(unreclaimedMax, s)
		}
		unreclaimed = float64(sum) / float64(len(samples))
	}
	return Result{
		Figure:         exp.ID,
		DS:             exp.DS,
		Workload:       exp.Workload.Name,
		Scheme:         schemeName,
		Threads:        threads,
		Mops:           float64(totalOps) / elapsed.Seconds() / 1e6,
		Ops:            totalOps,
		Unreclaimed:    unreclaimed,
		UnreclaimedMax: unreclaimedMax,
		SlowPaths:      tel.SlowPaths - base.SlowPaths,
		MaxSteps:       tel.MaxSteps,
		P99Steps:       tel.P99Steps,
		ScanScans:      tel.ScanScans - base.ScanScans,
		ScanBlocks:     tel.ScanBlocks - base.ScanBlocks,
		ScanNanos:      tel.ScanNanos - base.ScanNanos,
		Exhausted:      exhausted.Load(),
	}
}
