// Command wfestress is the correctness workhorse: it storms any public
// structure × scheme combination (the benchmark's structures: wfqueue,
// turnqueue, list — the one-bucket HashMap —, hashmap, tree) with the
// arena's use-after-free detection armed, from 8x more goroutines than the
// Domain has guards, each operation leasing a guard. It optionally forces
// the wait-free schemes' slow path on every protected read (the paper's §5
// stress validation, also selected by the WFE-slow and WFE-IBR-slow scheme
// names) and optionally parks -stall readers, each a pinned guard holding
// a protection for the whole storm. Any reclamation bug panics with a
// use-after-free or double-free diagnostic. After each storm the structure
// is drained and the run asserts the guard pool refills and (for every
// reclaiming scheme) the retired backlog collapses.
//
// The -churn mode stresses the guard runtime instead of one data
// structure: it drives the public guardless API from 8x more goroutines
// than the Domain has guards, with the debug arena armed, and asserts the
// guard pool refills completely after the storm — a leaked lease or a
// double-handed tid fails the run.
//
// The -chaos mode runs internal/chaos's canned hostile-schedule matrix
// (stalled readers, preempted writers, bursty churn, oversubscription,
// the exhaustion storm) across the schemes, judges every trajectory with
// the verdict the chaos tests use (chaos.Canned.Check), and with
// -chaosdir writes every per-(scenario, scheme) trajectory as
// wfe-chaos/v1 JSON for artifact upload and cmd/wfeadvise.
//
// The -switch mode is the live-switching storm: one Domain under
// guardless churn from 8x more goroutines than guards has Domain.Switch
// cycle it through every scheme in rotation for the whole run, with the
// debug arena armed and a sampler recording the trajectory. Any ordering
// bug between the guard gate, the backlog drain and the scheme swap
// panics or fails the final census; -switchout writes the per-hop log
// and sampler rows as wfe-switch/v1 JSON for artifact upload.
//
// The -batch mode is the batched-operations correctness twin of the
// bench ablation: 8x more goroutines than guards drive the batch entry
// points (MultiPut/MultiDelete/MultiGet, PushAll/PopN and their Try*
// twins, guardless and pinned) at mixed widths while Domain.Switch
// rotates through every scheme and the arena-alloc failpoint injects
// probabilistic allocation faults — an exhaustion storm that forces the
// Try* partial-progress paths mid-burst. The debug arena is armed; the
// run ends with a clean quiesce census and asserts the batch telemetry
// actually counted the bursts.
//
// Every mode can serve live OpenMetrics with -metrics; -churn can record
// a Chrome trace-event artifact (wfe-trace/v1) of the guard runtime's
// internal events with -trace.
//
//	wfestress -ds hashmap -scheme WFE -forceslow -threads 8 -duration 5s
//	wfestress -ds all -scheme all -duration 2s
//	wfestress -ds hashmap -stall 1 -scheme all -duration 500ms
//	wfestress -churn -scheme all -duration 2s
//	wfestress -chaos -scheme all -chaosdir chaos-out
//	wfestress -switch -duration 5s -switchout switch-trajectory.json
//	wfestress -batch -duration 5s
//	wfestress -churn -scheme WFE -trace churn-trace.json -metrics 127.0.0.1:9100
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
	"wfe/internal/bench"
	"wfe/internal/chaos"
	"wfe/internal/failpoint"
	"wfe/internal/quiesce"
	"wfe/metrics"
)

// metricsReg, when -metrics is serving, receives every stressed domain's
// live telemetry; traceFile, when -trace is set, is where the churn run
// writes its Chrome trace artifact.
var (
	metricsReg *metrics.Registry
	traceFile  string
)

// observe registers a live telemetry source when -metrics is serving.
func observe(name string, tel func() wfe.Telemetry) {
	if metricsReg != nil {
		metricsReg.Register(name, tel)
	}
}

func main() {
	var (
		dsName    = flag.String("ds", "hashmap", "data structure (wfqueue, turnqueue, list, hashmap, tree, all)")
		scheme    = flag.String("scheme", "WFE", "reclamation scheme (or 'all')")
		threads   = flag.Int("threads", 8, "guards the storm's goroutines (8 per guard) lease from")
		duration  = flag.Duration("duration", 3*time.Second, "stress duration per combination")
		keyRange  = flag.Uint64("keyrange", 512, "key range (small ranges maximise conflicts)")
		forceSlow = flag.Bool("forceslow", false, "force WFE's slow path on every GetProtected")
		stall     = flag.Int("stall", 0, "number of readers to stall mid-operation, each on its own pinned guard")
		eraFreq   = flag.Int("erafreq", 8, "era increment frequency (low values stress helping)")
		churn     = flag.Bool("churn", false, "guard-runtime churn: 8x more goroutines than guards over the public guardless API")
		chaosRun  = flag.Bool("chaos", false, "run the canned chaos-schedule matrix (stalled readers, preempted writers, bursty churn, oversubscription, exhaustion storm) and assert the per-scheme robustness bounds")
		chaosDir  = flag.String("chaosdir", "", "with -chaos: directory to write per-(scenario,scheme) trajectory JSONs into")
		chaosName = flag.String("scenario", "", "with -chaos: run only the named scenario (default: the whole catalog)")
		switchRun = flag.Bool("switch", false, "live-switching storm: cycle Domain.Switch through every scheme under guardless churn")
		batchRun  = flag.Bool("batch", false, "batched-operations storm: batch bursts at mixed widths racing Domain.Switch and injected allocation faults")
		switchOut = flag.String("switchout", "", "with -switch: write the storm's hop log and sampler trajectory as wfe-switch/v1 JSON to this file")
		maddr     = flag.String("metrics", "", "serve OpenMetrics/pprof on this address while stressing (e.g. 127.0.0.1:9100)")
		traceOut  = flag.String("trace", "", "with -churn: record the domain's event trace and write it as Chrome trace-event JSON (wfe-trace/v1) to this file")
	)
	flag.Parse()

	if *maddr != "" {
		metricsReg = metrics.NewRegistry()
		addr, err := metrics.Serve(*maddr, metricsReg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfestress: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wfestress: serving metrics on http://%s/metrics\n", addr)
	}
	traceFile = *traceOut

	dss := []string{*dsName}
	if *dsName == "all" {
		dss = bench.DSNames
	}
	scs := []string{*scheme}
	if *scheme == "all" {
		scs = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "Leak"}
	}

	failed := false
	if *batchRun {
		if err := batchStorm(*threads, *duration, *keyRange, *eraFreq); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL batch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *switchRun {
		if err := switchStorm(*threads, *duration, *keyRange, *eraFreq, *switchOut); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL switch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaosRun {
		if err := chaosMatrix(*scheme, *chaosName, *chaosDir); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *churn {
		for _, s := range scs {
			if err := churnStress(s, *threads, *duration, *keyRange, *forceSlow, *eraFreq); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL churn    %-8s: %v\n", s, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	for _, d := range dss {
		for _, s := range scs {
			if err := storm(d, s, *threads, *duration, *keyRange, *forceSlow, *stall, *eraFreq); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %-9s %-12s: %v\n", d, s, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// chaosMatrix runs the canned chaos scenarios over the selected schemes
// (every scheme for "all") and judges each trajectory with the verdict
// the chaos tests use, chaos.Canned.Check: bounded schemes under their
// ceilings, the exempt schemes (Leak; EBR under a stalled reader) visibly
// past the floor, a clean post-run quiesce everywhere, the advisor's
// expected recommendation on each scenario's EBR trajectory, and the
// exhaustion storm's resolved pressure. With dir set, each trajectory is
// written to <dir>/<scenario>-<scheme>.json for artifact upload. A
// non-empty scenario restricts the matrix to that one catalog entry.
func chaosMatrix(scheme, scenario, dir string) error {
	kinds := wfe.AllSchemes()
	if scheme != "all" {
		kind, _, err := bench.ParseScheme(scheme) // the chaos matrix has no forced-slow mode
		if err != nil {
			return err
		}
		kinds = []wfe.SchemeKind{kind}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	catalog := chaos.Catalog()
	if scenario != "" {
		kept := catalog[:0]
		for _, c := range catalog {
			if c.Name == scenario {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("unknown chaos scenario %q", scenario)
		}
		catalog = kept
	}
	failed := false
	for _, c := range catalog {
		for _, kind := range kinds {
			tr, err := chaos.Run(kind, c.Scenario)
			if err != nil {
				return err
			}
			verdict := "ok"
			if bad := c.Check(kind, tr); bad != nil {
				verdict = strings.Join(bad, "; ")
				failed = true
			}
			fmt.Printf("chaos %-17s %-8s highwater=%6d final=%5d parks=%6d %s\n",
				c.Name, kind, tr.Summary.UnreclaimedMax, tr.Summary.UnreclaimedFinal,
				tr.Summary.Parks, verdict)
			if dir != "" {
				blob, err := json.MarshalIndent(tr, "", " ")
				if err != nil {
					return err
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", c.Name, kind))
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					return err
				}
			}
		}
	}
	if failed {
		return fmt.Errorf("robustness matrix violated (see lines above)")
	}
	return nil
}

// switchHop is one Domain.Switch in the storm's log: when it completed
// (ms since storm start), the ordered pair it moved between, and the
// retired backlog the drain left behind.
type switchHop struct {
	AtMS        int64  `json:"at_ms"`
	From        string `json:"from"`
	To          string `json:"to"`
	Unreclaimed int    `json:"unreclaimed"`
}

// switchTrajectory is the wfe-switch/v1 artifact: the hop log plus the
// sampler's telemetry rows across the whole storm, enough for offline
// tools to plot backlog and scan behaviour around every swap.
type switchTrajectory struct {
	Format   string                `json:"format"`
	Threads  int                   `json:"threads"`
	Duration string                `json:"duration"`
	Hops     []switchHop           `json:"hops"`
	Samples  []wfe.TelemetrySample `json:"samples"`
	Final    wfe.Telemetry         `json:"final"`
}

// switchStorm cycles one Domain through every scheme via Domain.Switch
// while 8x more goroutines than guards churn the guardless API with the
// debug arena armed. Each hop must drain cleanly mid-storm; afterwards
// the structures are drained and the census must collapse like any
// single-scheme run. The Leak dwell is survivable because the next hop's
// drain hands the leaked backlog to a reclaiming scheme.
func switchStorm(threads int, duration time.Duration, keyRange uint64,
	eraFreq int, out string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	const interval = 5 * time.Millisecond
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      wfe.WFE,
		Capacity:    1 << 22, // headroom for the Leak dwells' unreclaimed spikes
		MaxGuards:   threads,
		EraFreq:     eraFreq,
		CleanupFreq: 4,
		Debug:       true,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	observe("switch", d.Telemetry)
	s := d.StartSampler(wfe.SamplerConfig{
		Interval: interval,
		History:  int(duration/interval) + 64,
	})
	st := wfe.NewStack[uint64](d)
	m := wfe.NewMap[uint64](d, 64)

	goroutines := 8 * threads
	var (
		stop atomic.Bool
		ops  atomic.Uint64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*9901 + 7))
			for !stop.Load() {
				key := uint64(rng.Int63n(int64(keyRange)))
				switch rng.Intn(6) {
				case 0:
					st.Push(key)
				case 1:
					st.Pop()
				case 2:
					m.Put(key, key)
				case 3:
					m.Delete(key)
				case 4:
					m.Get(key)
				default: // pinned batch: a guard held across the gate's path
					g := d.Pin()
					m.InsertGuarded(g, key, key)
					m.DeleteGuarded(g, key)
					d.Unpin(g)
				}
				ops.Add(1)
			}
		}(w)
	}

	// The switcher: rotate through every scheme, dwelling briefly on each,
	// until the clock runs out; always end on a reclaiming scheme so the
	// final census has someone to collapse the backlog.
	const dwell = 20 * time.Millisecond
	rotation := wfe.AllSchemes()
	var hops []switchHop
	for i := 0; time.Since(start) < duration; i++ {
		time.Sleep(dwell)
		from := d.Scheme()
		to := rotation[i%len(rotation)]
		if to == from {
			continue
		}
		if serr := d.Switch(to); serr != nil {
			stop.Store(true)
			wg.Wait()
			return fmt.Errorf("hop %d (%v -> %v): %v", i, from, to, serr)
		}
		hops = append(hops, switchHop{
			AtMS:        time.Since(start).Milliseconds(),
			From:        from.String(),
			To:          to.String(),
			Unreclaimed: d.Telemetry().Unreclaimed,
		})
	}
	if d.Scheme() == wfe.Leak {
		if serr := d.Switch(wfe.WFE); serr != nil {
			stop.Store(true)
			wg.Wait()
			return fmt.Errorf("final hop off Leak: %v", serr)
		}
		hops = append(hops, switchHop{
			AtMS: time.Since(start).Milliseconds(),
			From: wfe.Leak.String(), To: wfe.WFE.String(),
			Unreclaimed: d.Telemetry().Unreclaimed,
		})
	}
	stop.Store(true)
	wg.Wait()
	for {
		if _, ok := st.Pop(); !ok {
			break
		}
	}
	for k := uint64(0); k < keyRange; k++ {
		m.Delete(k)
	}
	quiesce.Settle(d)
	if err := quiesce.Check(d, true); err != nil {
		return err
	}
	s.Stop()
	tel := d.Telemetry()
	if got, want := tel.SchemeSwitches, uint64(len(hops)); got != want {
		return fmt.Errorf("SchemeSwitches = %d, want %d (one per logged hop)", got, want)
	}
	if out != "" {
		blob, jerr := json.MarshalIndent(switchTrajectory{
			Format:   "wfe-switch/v1",
			Threads:  threads,
			Duration: duration.String(),
			Hops:     hops,
			Samples:  s.History(),
			Final:    tel,
		}, "", " ")
		if jerr != nil {
			return jerr
		}
		if werr := os.WriteFile(out, blob, 0o644); werr != nil {
			return werr
		}
		fmt.Printf("trajectory: wrote %d hops, %d sampler rows to %s\n", len(hops), len(s.History()), out)
	}
	fmt.Printf("PASS switch           : %d ops, %d switches over %d schemes, %d goroutines over %d guards, %d unreclaimed in %v\n",
		ops.Load(), len(hops), len(rotation), goroutines, threads,
		tel.Unreclaimed, time.Since(start).Round(time.Millisecond))
	return nil
}

// batchStorm is the batched-operations correctness twin of the bench
// ablation: 8x more goroutines than guards drive the batch entry points
// on a HashMap and a Stack at mixed widths — guardless Try*/Multi*
// bursts plus pinned Guarded bursts — while a switcher cycles
// Domain.Switch through every scheme and the arena-alloc failpoint
// makes roughly one allocation in 500 fail, forcing the Try* paths to
// surface partial progress mid-burst and the plain paths through the
// emergency-reclamation pipeline. The retirer-scan failpoint skips an
// occasional scan so the backlog breathes between bursts. The debug
// arena is armed throughout; after the storm the failpoints are
// disarmed, the structures drained, and the run must pass a full
// quiesce census and show the batch telemetry counted the bursts.
func batchStorm(threads int, duration time.Duration, keyRange uint64,
	eraFreq int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	defer failpoint.DisarmAll()
	if site, ok := failpoint.Lookup("arena-alloc"); ok {
		site.Arm(failpoint.Trigger{Prob: 0.002, Seed: 17,
			Err: errors.New("injected alloc fault")})
	}
	if site, ok := failpoint.Lookup("retirer-scan"); ok {
		site.Arm(failpoint.Trigger{Prob: 0.01, Seed: 29,
			Err: errors.New("injected scan skip")})
	}

	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      wfe.WFE,
		Capacity:    1 << 22, // headroom for the Leak dwells' unreclaimed spikes
		MaxGuards:   threads,
		EraFreq:     eraFreq,
		CleanupFreq: 4,
		Debug:       true,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	observe("batch", d.Telemetry)
	m := wfe.NewHashMap[uint64](d, 64)
	st := wfe.NewStack[uint64](d)

	goroutines := 8 * threads
	widths := []int{2, 8, 32}
	var (
		stop        atomic.Bool
		bursts      atomic.Uint64
		items       atomic.Uint64
		exhausts    atomic.Uint64
		workerPanic atomic.Pointer[string]
		wg          sync.WaitGroup
	)
	// benign reports nil for the one error the exhaustion storm is meant
	// to provoke (counting it), and the error itself for anything else —
	// any other failure escaping a batch entry point is a bug.
	benign := func(terr error) error {
		if terr == nil {
			return nil
		}
		if errors.Is(terr, wfe.ErrArenaExhausted) {
			exhausts.Add(1)
			return nil
		}
		return terr
	}
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					msg := fmt.Sprint(r)
					workerPanic.CompareAndSwap(nil, &msg)
					stop.Store(true)
				}
			}()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 3))
			ks := make([]uint64, 0, 32)
			vs := make([]uint64, 0, 32)
			for !stop.Load() {
				n := widths[rng.Intn(len(widths))]
				ks, vs = ks[:0], vs[:0]
				for i := 0; i < n; i++ {
					k := uint64(rng.Int63n(int64(keyRange)))
					ks = append(ks, k)
					vs = append(vs, k)
				}
				done := 0
				switch rng.Intn(6) {
				case 0:
					applied, terr := m.TryMultiPut(ks, vs)
					if terr = benign(terr); terr != nil {
						panic(terr)
					}
					done = applied
				case 1:
					m.MultiDelete(ks)
					done = n
				case 2:
					m.MultiGet(ks)
					done = n
				case 3:
					pushed, terr := st.TryPushAll(vs)
					if terr = benign(terr); terr != nil {
						panic(terr)
					}
					done = pushed
				case 4:
					done = len(st.PopN(n))
				default: // pinned guard: two bursts amortize one lease
					g := d.Pin()
					applied, terr := m.TryMultiPutGuarded(g, ks, vs)
					if terr = benign(terr); terr != nil {
						d.Unpin(g)
						panic(terr)
					}
					done = applied
					if applied == n {
						m.MultiDeleteGuarded(g, ks)
						done += n
					}
					d.Unpin(g)
				}
				bursts.Add(1)
				items.Add(uint64(done))
			}
		}(w)
	}

	// The switcher: same rotation as the -switch storm, so every scheme's
	// BeginBatch/RetireBatch path runs under the storm, and the switch
	// gate has to drain guards that are mid-burst.
	const dwell = 20 * time.Millisecond
	rotation := wfe.AllSchemes()
	switches := 0
	for i := 0; time.Since(start) < duration && !stop.Load(); i++ {
		time.Sleep(dwell)
		to := rotation[i%len(rotation)]
		if to == d.Scheme() {
			continue
		}
		if serr := d.Switch(to); serr != nil {
			stop.Store(true)
			wg.Wait()
			return fmt.Errorf("switch %d to %v: %v", i, to, serr)
		}
		switches++
	}
	if d.Scheme() == wfe.Leak {
		if serr := d.Switch(wfe.WFE); serr != nil {
			stop.Store(true)
			wg.Wait()
			return fmt.Errorf("final hop off Leak: %v", serr)
		}
		switches++
	}
	stop.Store(true)
	wg.Wait()
	if msg := workerPanic.Load(); msg != nil {
		return fmt.Errorf("worker panic: %s", *msg)
	}

	// Quiesce with the faults disarmed: the census needs real scans and
	// real allocations, and the drain itself runs through the batch
	// paths one last time.
	failpoint.DisarmAll()
	for len(st.PopN(64)) > 0 {
	}
	drain := make([]uint64, 0, 64)
	for lo := uint64(0); lo < keyRange; lo += 64 {
		drain = drain[:0]
		for k := lo; k < lo+64 && k < keyRange; k++ {
			drain = append(drain, k)
		}
		m.MultiDelete(drain)
	}
	quiesce.Settle(d)
	if err := quiesce.Check(d, true); err != nil {
		return err
	}
	tel := d.Telemetry()
	if got, want := tel.SchemeSwitches, uint64(switches); got != want {
		return fmt.Errorf("SchemeSwitches = %d, want %d", got, want)
	}
	if tel.BatchOps == 0 || tel.BatchedItems == 0 {
		return fmt.Errorf("batch telemetry empty: BatchOps=%d BatchedItems=%d",
			tel.BatchOps, tel.BatchedItems)
	}
	if tel.BatchOps < bursts.Load() {
		return fmt.Errorf("BatchOps = %d, storm ran %d bursts", tel.BatchOps, bursts.Load())
	}
	fmt.Printf("PASS batch            : %d bursts (%d items), %d switches, %d injected exhaustions, %d goroutines over %d guards, %d unreclaimed in %v\n",
		bursts.Load(), items.Load(), switches, exhausts.Load(),
		goroutines, threads, tel.Unreclaimed, time.Since(start).Round(time.Millisecond))
	return nil
}

// churnStress hammers the guard runtime: guards = threads, goroutines =
// 8x that, every operation leasing a guard through the public guardless
// API with the debug arena armed. After quiescing, the lease cache is
// flushed and the pool must hold every tid again.
func churnStress(schemeName string, threads int, duration time.Duration,
	keyRange uint64, forceSlow bool, eraFreq int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	kind, slow, err := bench.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	capacity := 1 << 20
	if kind == wfe.Leak {
		capacity = 1 << 23
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      capacity,
		MaxGuards:     threads,
		EraFreq:       eraFreq,
		CleanupFreq:   4,
		ForceSlowPath: forceSlow || slow,
		Debug:         true,
		Trace:         traceFile != "",
	})
	if err != nil {
		return err
	}
	observe("churn/"+schemeName, d.Telemetry)
	st := wfe.NewStack[uint64](d)
	m := wfe.NewMap[uint64](d, 64)

	goroutines := 8 * threads
	var (
		stop atomic.Bool
		ops  atomic.Uint64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7717 + 3))
			for !stop.Load() {
				key := uint64(rng.Int63n(int64(keyRange)))
				switch rng.Intn(6) {
				case 0:
					st.Push(key)
				case 1:
					st.Pop()
				case 2:
					m.Put(key, key)
				case 3:
					m.Delete(key)
				case 4:
					m.Get(key)
				default: // a short pinned batch mixed into the churn
					g := d.Pin()
					m.InsertGuarded(g, key, key)
					m.DeleteGuarded(g, key)
					d.Unpin(g)
				}
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	if err := quiesce.Check(d, false); err != nil {
		return err
	}
	if traceFile != "" {
		f, ferr := os.Create(traceFile)
		if ferr != nil {
			return ferr
		}
		if werr := d.WriteTrace(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("trace: wrote %d events to %s\n", len(d.TraceEvents()), traceFile)
	}
	tel := d.Telemetry()
	fmt.Printf("PASS churn    %-8s: %d ops, %d goroutines over %d guards, %d acquires, %d cache hits, %d parks, %d live blocks in %v\n",
		schemeName, ops.Load(), goroutines, threads,
		tel.GuardAcquires, tel.GuardCacheHits, tel.GuardParks, tel.InUse,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// stormMix is the storm's key-value operation mix; queues run the paper's
// write-heavy 50% enqueue / 50% dequeue instead.
var stormMix = bench.Workload{Name: "storm", Insert: 25, Delete: 25, GetPct: 25, PutPct: 25}

// storm drives one public structure from 8x more goroutines than guards,
// every operation leasing a guard (Pin, the Guarded call, Unpin — the
// path the guardless methods take), with the debug arena armed. Each of
// the stall extra guards is pinned by a reader parked inside an operation
// (bench.StallReader) for the whole storm. After the storm the structure
// is drained and the run asserts the lease cache flushes clean, every tid
// is back in the pool, and — for every scheme but the leak baseline — the
// retired backlog collapses.
func storm(dsName, schemeName string, threads int, duration time.Duration,
	keyRange uint64, forceSlow bool, stall, eraFreq int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()

	kind, slow, err := bench.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	if dsName == "turnqueue" && threads+stall > bench.MaxTurnGuards {
		threads = bench.MaxTurnGuards - stall // the CRTurn claim word's tid capacity
	}
	capacity := 1 << 20
	if kind == wfe.Leak {
		capacity = 1 << 23
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      capacity,
		MaxGuards:     threads + stall,
		EraFreq:       eraFreq,
		CleanupFreq:   4,
		ForceSlowPath: forceSlow || slow,
		Debug:         true,
	})
	if err != nil {
		return err
	}
	observe(dsName+"/"+schemeName, d.Telemetry)
	kv := bench.BuildPublicKV(dsName, d, keyRange)
	mix := stormMix
	if bench.IsQueue(dsName) {
		mix = bench.WriteHeavy
	}

	goroutines := 8 * threads
	var (
		stop        atomic.Bool
		ops         atomic.Uint64
		wg          sync.WaitGroup
		workerPanic atomic.Pointer[string]
		exhausted   atomic.Bool
	)
	for i := 0; i < stall; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bench.StallReader(d, stop.Load)
		}()
	}
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				// A worker panic (a debug-arena use-after-free, a guard
				// leak — the failures the storm exists to surface) must
				// become this cell's FAIL, not kill the whole matrix. The
				// one expected panic is the leak baseline filling its
				// fixed arena on a long run: that ends the cell early but
				// passes it.
				if r := recover(); r != nil {
					if bench.LeakExhausted(r, kind) {
						exhausted.Store(true)
					} else {
						msg := fmt.Sprintf("worker panic: %v", r)
						workerPanic.CompareAndSwap(nil, &msg)
					}
					stop.Store(true)
				}
			}()
			rng := rand.New(rand.NewSource(int64(w)*6271 + 5))
			for !stop.Load() {
				g := d.Pin()
				mix.Do(kv, g, rng.Intn(100), uint64(rng.Int63n(int64(keyRange))))
				d.Unpin(g)
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if msg := workerPanic.Load(); msg != nil {
		return fmt.Errorf("%s", *msg)
	}
	if exhausted.Load() {
		// Nothing left to assert: the drain/settle churn below would only
		// panic again on the full arena.
		fmt.Printf("PASS %-9s %-12s: %d ops, arena exhausted (expected for Leak) in %v\n",
			dsName, schemeName, ops.Load(), time.Since(start).Round(time.Millisecond))
		return nil
	}

	// Quiescent drain, then settle every tid's retire list so the final
	// census reflects a completed cleanup scan.
	g := d.Pin()
	if bench.IsQueue(dsName) {
		for kv.Remove(g, 0) {
		}
	} else {
		for k := uint64(0); k < keyRange; k++ {
			kv.Remove(g, k)
		}
	}
	d.Unpin(g)
	if n := kv.Len(); n != 0 {
		return fmt.Errorf("structure not empty after drain: Len = %d", n)
	}
	quiesce.Settle(d)
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		return err
	}
	tel := d.Telemetry()
	fmt.Printf("PASS %-9s %-12s: %d ops, %d goroutines over %d guards, %d stalled, %d acquires, %d parks, %d unreclaimed in %v\n",
		dsName, schemeName, ops.Load(), goroutines, threads, stall,
		tel.GuardAcquires, tel.GuardParks, tel.Unreclaimed,
		time.Since(start).Round(time.Millisecond))
	return nil
}
