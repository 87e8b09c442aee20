// Command wfebench regenerates the paper's evaluation on the shipped
// public structures: every figure's throughput and unreclaimed-object
// series (Figures 5–11: WFQueue, TurnQueue, the one-bucket HashMap as the
// sorted list, HashMap and Tree, each worker on a pinned guard) plus the
// ablations.
//
// Quick sweep of one figure:
//
//	wfebench -figure 7
//
// Everything, with the paper's full parameters (10s × 5 per point):
//
//	wfebench -figure all -paper
//
// Ablations:
//
//	wfebench -ablation attempts|slowpath|erafreq|stall|wfeibr
//
// Guard-runtime overhead (the guardless API's lease cost per acquisition
// path, with the guard-pool telemetry that explains it):
//
//	wfebench -ablation guards
//
// Sorted-snapshot vs linear cleanup (the linear arm pins
// Options.SortCutoff at math.MaxInt):
//
//	wfebench -ablation scan
//
// Batched operations (TryMultiPut/MultiDelete widths 1..128 against the
// per-op baseline, per scheme):
//
//	wfebench -ablation batch
//
// Machine-readable trajectory artifact (all figures + the scan ablation;
// -short shrinks every parameter to CI scale):
//
//	wfebench -json -short -out BENCH_4.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"wfe"
	"wfe/internal/bench"
	"wfe/metrics"
)

func main() {
	var (
		figure   = flag.String("figure", "", "figure id (5a,5c,6,7,8,9,10,11 or 'all')")
		ablation = flag.String("ablation", "", "ablation (attempts, slowpath, erafreq, stall, wfeibr, guards, scan, batch)")
		threads  = flag.String("threads", "", "comma-separated thread counts (default: powers of two up to GOMAXPROCS)")
		duration = flag.Duration("duration", 500*time.Millisecond, "measurement duration per point")
		repeat   = flag.Int("repeat", 1, "repetitions per point (best reported)")
		prefill  = flag.Int("prefill", 50000, "initial elements")
		keyrange = flag.Uint64("keyrange", 100000, "key range")
		erafreq  = flag.Int("erafreq", 150, "era increment frequency ν")
		cleanupf = flag.Int("cleanupfreq", 30, "retire-list scan frequency")
		attempts = flag.Int("attempts", 16, "WFE fast-path attempts")
		paper    = flag.Bool("paper", false, "paper parameters: 10s duration, 5 repetitions")
		short    = flag.Bool("short", false, "CI parameters: ~100ms points, small prefill, two thread counts")
		jsonMode = flag.Bool("json", false, "write the machine-readable trajectory artifact (all figures + scan ablation)")
		out      = flag.String("out", "BENCH_4.json", "output path for -json")
		csv      = flag.Bool("csv", false, "CSV output instead of tables")
		pin      = flag.Bool("pin", false, "pin workers to OS threads (paper methodology)")
		maddr    = flag.String("metrics", "", "serve OpenMetrics/pprof on this address while sweeping (e.g. 127.0.0.1:9100)")
	)
	flag.Parse()

	opt := bench.Options{
		Duration:    *duration,
		Repeat:      *repeat,
		Prefill:     *prefill,
		KeyRange:    *keyrange,
		EraFreq:     *erafreq,
		CleanupFreq: *cleanupf,
		MaxAttempts: *attempts,
		Pin:         *pin,
	}
	if *paper {
		opt.Duration = 10 * time.Second
		opt.Repeat = 5
	}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatalf("bad -threads value %q", part)
			}
			opt.Threads = append(opt.Threads, n)
		}
	}
	if *short {
		// Shrink the sweep-scale parameters to CI scale, except where the
		// user passed the flag explicitly.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["duration"] {
			opt.Duration = 0
		}
		if !set["prefill"] {
			opt.Prefill = 0
		}
		if !set["keyrange"] {
			opt.KeyRange = 0
		}
		if !set["repeat"] {
			opt.Repeat = 0
		}
		opt = bench.ShortOptions(opt)
	}

	if *maddr != "" {
		// Each measured run registers its live telemetry under
		// figure/scheme/tN; a scraper polling /metrics (or wfemon -url
		// polling /vars) watches the sweep advance point by point, and
		// /debug/pprof profiles carry the workers' scheme/structure/phase
		// labels.
		reg := metrics.NewRegistry()
		addr, err := metrics.Serve(*maddr, reg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wfebench: serving metrics on http://%s/metrics\n", addr)
		opt.Observe = func(label string, tel func() wfe.Telemetry) {
			reg.Register(label, tel)
		}
	}

	if *ablation == "scan" && *threads == "" {
		// Let the scan ablation pick its ≥16-thread end-to-end point even
		// under -short, matching what the -json artifact records.
		opt.Threads = nil
	}

	switch {
	case *jsonMode:
		writeJSONReport(opt, *out)
	case *ablation != "":
		runAblation(*ablation, opt, *csv)
	case *figure != "":
		runFigures(*figure, opt, *csv)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeJSONReport measures the full trajectory artifact and writes it to
// path, printing a one-line summary per section so CI logs show progress.
func writeJSONReport(opt bench.Options, path string) {
	rep := bench.BuildReport(opt)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s: %d figure points, %d scan-ablation points, %d batch-ablation points (%s, %d CPUs)\n",
		path, len(rep.Figures), len(rep.ScanAblation), len(rep.BatchAblation), rep.GoVersion, rep.NumCPU)
	for _, line := range bench.ScanSummary(rep.ScanAblation) {
		fmt.Println("  " + line)
	}
}

func runFigures(figure string, opt bench.Options, csv bool) {
	var exps []bench.Experiment
	if figure == "all" {
		exps = bench.Experiments
	} else {
		exp, err := bench.FindExperiment(figure)
		if err != nil {
			fatalf("%v", err)
		}
		exps = []bench.Experiment{exp}
	}
	if csv {
		fmt.Println("figure,ds,workload,scheme,threads,mops,unreclaimed,slowpaths,exhausted")
	}
	for _, exp := range exps {
		results := bench.Run(exp, opt)
		if csv {
			for _, r := range results {
				fmt.Printf("%s,%s,%s,%s,%d,%.4f,%.1f,%d,%v\n",
					r.Figure, r.DS, r.Workload, r.Scheme, r.Threads,
					r.Mops, r.Unreclaimed, r.SlowPaths, r.Exhausted)
			}
			continue
		}
		printFigure(exp, results)
	}
}

// printFigure renders both panels of one paper figure: throughput and
// unreclaimed objects, rows by thread count and columns by scheme.
func printFigure(exp bench.Experiment, results []bench.Result) {
	fmt.Printf("\n=== Figure %s: %s ===\n", exp.ID, exp.Title)

	threadSet := map[int]bool{}
	for _, r := range results {
		threadSet[r.Threads] = true
	}
	var threads []int
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)

	byKey := map[string]bench.Result{}
	for _, r := range results {
		byKey[fmt.Sprintf("%s/%d", r.Scheme, r.Threads)] = r
	}

	printPanel := func(title string, value func(bench.Result) string, schemes []string) {
		fmt.Printf("\n%s\n", title)
		fmt.Printf("%8s", "threads")
		for _, s := range schemes {
			fmt.Printf("%12s", s)
		}
		fmt.Println()
		for _, t := range threads {
			fmt.Printf("%8d", t)
			for _, s := range schemes {
				r, ok := byKey[fmt.Sprintf("%s/%d", s, t)]
				if !ok {
					fmt.Printf("%12s", "-")
					continue
				}
				fmt.Printf("%12s", value(r))
			}
			fmt.Println()
		}
	}

	printPanel("Throughput (Mops/s)", func(r bench.Result) string {
		s := fmt.Sprintf("%.3f", r.Mops)
		if r.Exhausted {
			s += "*"
		}
		return s
	}, exp.Schemes)

	// The paper excludes the leak baseline from unreclaimed plots.
	var noLeak []string
	for _, s := range exp.Schemes {
		if s != "Leak" {
			noLeak = append(noLeak, s)
		}
	}
	printPanel("Unreclaimed objects (mean)", func(r bench.Result) string {
		return fmt.Sprintf("%.0f", r.Unreclaimed)
	}, noLeak)
}

func runAblation(name string, opt bench.Options, csv bool) {
	if name == "guards" {
		runGuardOverhead(opt, csv)
		return
	}
	if name == "scan" {
		runScan(opt, csv)
		return
	}
	if name == "batch" {
		runBatch(opt, csv)
		return
	}
	var results []bench.AblationResult
	switch name {
	case "attempts":
		results = bench.AblationAttempts(opt)
	case "slowpath":
		results = bench.AblationSlowPath(opt)
	case "erafreq":
		results = bench.AblationEraFreq(opt)
	case "stall":
		results = bench.AblationStall(opt)
	case "wfeibr":
		results = bench.AblationWaitFreeIBR(opt)
	default:
		fatalf("unknown ablation %q (want attempts, slowpath, erafreq, stall, wfeibr, guards, scan, batch)", name)
	}
	if csv {
		fmt.Println("ablation,param,scheme,ds,threads,mops,slow_per_mop,unreclaimed")
		for _, r := range results {
			fmt.Printf("%s,%s,%s,%s,%d,%.4f,%.2f,%.1f\n",
				r.Ablation, r.Param, r.Scheme, r.DS, r.Threads,
				r.Mops, r.SlowPerMop, r.Unreclaimed)
		}
		return
	}
	fmt.Printf("\n=== Ablation: %s ===\n", name)
	fmt.Printf("%-18s%-10s%-10s%8s%12s%16s%14s\n",
		"param", "scheme", "ds", "threads", "Mops/s", "slow/Mop", "unreclaimed")
	for _, r := range results {
		fmt.Printf("%-18s%-10s%-10s%8d%12.3f%16.2f%14.1f\n",
			r.Param, r.Scheme, r.DS, r.Threads, r.Mops, r.SlowPerMop, r.Unreclaimed)
	}
}

// runScan renders the sorted-vs-linear cleanup ablation: one row per
// figure × scheme × mode with the cleanup cost per retired block, then
// the paired comparison summary.
func runScan(opt bench.Options, csv bool) {
	results := bench.AblationScan(opt)
	if csv {
		fmt.Println("figure,ds,workload,scheme,mode,adaptive_linear,threads,mops,scan_scans,scan_blocks,scan_ns_per_block,unreclaimed")
		for _, r := range results {
			fmt.Printf("%s,%s,%s,%s,%s,%v,%d,%.4f,%d,%d,%.2f,%.1f\n",
				r.Figure, r.DS, r.Workload, r.Scheme, r.Mode, r.AdaptiveLinear, r.Threads,
				r.Mops, r.Scans, r.ScanBlocks, r.NsPerBlock, r.Unreclaimed)
		}
		return
	}
	fmt.Printf("\n=== Ablation: scan (sorted-snapshot cleanup vs linear reference) ===\n")
	fmt.Printf("%-8s%-10s%-10s%-10s%8s%12s%10s%12s%14s%14s\n",
		"figure", "workload", "scheme", "mode", "threads", "Mops/s", "scans", "blocks", "ns/block", "unreclaimed")
	for _, r := range results {
		mode := r.Mode
		if r.AdaptiveLinear {
			mode += "*"
		}
		fmt.Printf("%-8s%-10s%-10s%-10s%8d%12.3f%10d%12d%14.1f%14.1f\n",
			r.Figure, r.Workload, r.Scheme, mode, r.Threads,
			r.Mops, r.Scans, r.ScanBlocks, r.NsPerBlock, r.Unreclaimed)
	}
	fmt.Println()
	for _, line := range bench.ScanSummary(results) {
		fmt.Println(line)
	}
	fmt.Println("\nns/block is cleanup time per examined retired block: the linear mode")
	fmt.Println("re-sweeps all G gathered reservations per block (O(R×G)); the sorted")
	fmt.Println("mode binary-searches a once-sorted snapshot (O((R+G)·log G)).")
	fmt.Println("sorted* = gathered set below the runtime's sort cutoff")
	fmt.Println("(reclaim.DefaultSortCutoff), so the sorted arm adaptively ran the")
	fmt.Println("linear sweep (the pair compares nothing).")
}

// runBatch renders the batched-operations ablation: per-op baseline vs
// TryMultiPut/MultiDelete at each batch width, per scheme and goroutine
// count, with the speedup factor and the batch lease-cache hit rate.
func runBatch(opt bench.Options, csv bool) {
	results := bench.AblationBatch(opt)
	if csv {
		fmt.Println("scheme,goroutines,batch_size,mops,speedup,batch_lease_hit_rate,exhausted")
		for _, r := range results {
			fmt.Printf("%s,%d,%d,%.4f,%.3f,%.3f,%v\n",
				r.Scheme, r.Goroutines, r.BatchSize, r.Mops, r.Speedup,
				r.BatchLeaseHitRate, r.Exhausted)
		}
		return
	}
	fmt.Printf("\n=== Ablation: batch (hash map, 50%% put / 50%% delete, guardless) ===\n")
	fmt.Printf("%-10s%12s%8s%12s%10s%12s\n",
		"scheme", "goroutines", "batch", "Mops/s", "speedup", "lease-hit")
	for _, r := range results {
		batch := "per-op"
		if r.BatchSize > 0 {
			batch = strconv.Itoa(r.BatchSize)
		}
		mops := fmt.Sprintf("%.3f", r.Mops)
		if r.Exhausted {
			mops += "*"
		}
		fmt.Printf("%-10s%12d%8s%12s%9.2fx%12.2f\n",
			r.Scheme, r.Goroutines, batch, mops, r.Speedup, r.BatchLeaseHitRate)
	}
	fmt.Println("\nspeedup is against the per-op row of the same scheme/goroutines:")
	fmt.Println("one lease, one protection span (era/epoch/interval schemes; HP still")
	fmt.Println("rotates hazards per item) and one retire burst per batch. batch=1")
	fmt.Println("measures the batch path's fixed overhead and should sit near 1.0x.")
}

// runGuardOverhead renders the guard-runtime experiment: throughput per
// acquisition path plus the guard-pool counters (acquisitions, lease-cache
// hits/misses, park events) from the Domain's Telemetry.
func runGuardOverhead(opt bench.Options, csv bool) {
	results := bench.GuardOverhead(opt)
	if csv {
		fmt.Println("mode,goroutines,guards,mops,acquires,cache_hits,cache_misses,parks")
		for _, r := range results {
			t := r.Telemetry
			fmt.Printf("%s,%d,%d,%.4f,%d,%d,%d,%d\n",
				r.Mode, r.Goroutines, r.Guards, r.Mops,
				t.GuardAcquires, t.GuardCacheHits, t.GuardCacheMisses, t.GuardParks)
		}
		return
	}
	fmt.Printf("\n=== Guard runtime overhead (WFE, stack push/pop) ===\n")
	fmt.Printf("%-16s%12s%8s%12s%12s%12s%12s%8s\n",
		"mode", "goroutines", "guards", "Mops/s", "acquires", "hits", "misses", "parks")
	for _, r := range results {
		t := r.Telemetry
		fmt.Printf("%-16s%12d%8d%12.3f%12d%12d%12d%8d\n",
			r.Mode, r.Goroutines, r.Guards, r.Mops,
			t.GuardAcquires, t.GuardCacheHits, t.GuardCacheMisses, t.GuardParks)
	}
	fmt.Println("\npinned leases once per worker; guardless leases per operation (cache")
	fmt.Println("hits); guardless-8x oversubscribes goroutines 8:1 over guards (parks);")
	fmt.Println("acquire-per-op bypasses the per-P lease hint — the cost the hint removes.")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfebench: "+format+"\n", args...)
	os.Exit(1)
}
