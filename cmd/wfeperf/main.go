// Command wfeperf measures the public wfe structures end to end and layer
// by layer. It drives five workloads on HashMap and WFQueue under the WFE
// scheme, each with two closed-loop workers, and prints every metric by
// name and unit after checking the structures' outputs.
//
// Usage (from the repository root):
//
//	bash cmd/wfeperf/run.sh [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-json out.json] [-spans trace.json]
//	bash cmd/wfeperf/run.sh -compare [-benchmark BENCHMARK.json] a.json|a-dir b.json|b-dir
//
// A run has an end-to-end pass and, unless -trace is 0, a traced pass
// after it. The end-to-end pass interleaves the selected workloads in five
// rounds. In each, a workload gets a fresh domain, a fixed-work warm-up
// and one measured window (S/5 seconds), and each metric is reported as
// its median over the rounds. The traced pass runs one untraced and one
// traced window of the same length per workload, splits every traced
// call into spans at the library's public layer boundaries, and then
// probes single public calls.
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, whose metrics are the
// end-to-end set under -trace 0 and the per-layer set under -trace 1. The
// exit status is 1 when a correctness check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	runSeconds  = 5 // BENCHMARK.json's run_seconds; a test holds the two equal
	rounds      = 5
	untimedUps  = 2 // set-ups per workload before the rounds; see run
	probeCalls  = 100_000
	probeDomain = 1 << 12 // blocks in the forced-slow-path probe domain
)

type report struct {
	Schema    string           `json:"schema"`
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

type workloadReport struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Errors    []string         `json:"errors,omitempty"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	EndToEnd  map[string]stat  `json:"end_to_end,omitempty"`
	Info      map[string]stat  `json:"informational,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// result is the one-line summary the last line of a -workload run holds.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type config struct {
	workloads          []*workload
	seed               uint64
	seconds            float64
	rounds, untimedUps int
	traced             bool
}

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all five, interleaved)")
		seed      = flag.Uint64("seed", 1, "seed for the prefill shuffle and the workers' key streams")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds of the end-to-end pass")
		trace     = flag.Int("trace", 1, "1: follow the end-to-end pass with the traced pass; 0: skip it")
		jsonOut   = flag.String("json", "", "write the wfeperf/v1 report to this file")
		spansOut  = flag.String("spans", "", "write the traced pass's sampled spans as Chrome trace-event JSON")
		compare   = flag.Bool("compare", false, "compare two -json reports, or two directories of them, against BENCHMARK.json's bounds")
		benchPath = flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json, for -compare")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(*benchPath, flag.Args()))
	}
	cfg := config{workloads: workloads, seed: *seed, seconds: *seconds, rounds: rounds, untimedUps: untimedUps, traced: *trace == 1}
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		cfg.workloads = []*workload{wl}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	rep, srcs, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printReport(rep)
	if *jsonOut != "" {
		rep.Host.CPUModel = cpuModel()
		if err := writeFile(*jsonOut, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			fatalf("%v", err)
		}
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, func(f *os.File) error { return writeChromeTrace(f, srcs) }); err != nil {
			fatalf("%v", err)
		}
	}
	correct := true
	for _, w := range rep.Workloads {
		correct = correct && w.Correct
	}
	if *name != "" {
		w := rep.Workloads[0]
		res := result{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: w.PerLayer}
		if !cfg.traced {
			res.Metrics = map[string]value{}
			for k, s := range w.EndToEnd {
				res.Metrics[k] = value{Value: s.Median, Unit: s.Unit}
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfeperf: "+format+"\n", args...)
	os.Exit(2)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// run runs the passes cfg selects and checks every workload's outputs.
//
// The end-to-end pass gives each workload a fresh domain every round: it
// is set up (timed), warmed by a fixed amount of work, measured for one
// window and checked. So a run has one reading of the footprint, a
// high-water mark that only climbs, per round, and footprint_blocks is
// their median; a single domain kept for the whole run gives only one.
// The rounds interleave the workloads, so a change in host speed hits
// every workload alike. The last round's domains stay up for the traced
// pass.
func run(cfg config) (*report, []traceSource, error) {
	rep := &report{
		Schema:  "wfeperf/v1",
		Host:    host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Seed:    cfg.seed,
		Seconds: cfg.seconds,
	}
	n := len(cfg.workloads)
	live := make([]*instance, n)
	defer func() {
		for _, in := range live {
			if in != nil {
				in.teardown()
			}
		}
	}()
	// The first set-ups of a process get never-used memory, which Go need
	// not zero, and ran up to 6x faster than later ones, which reuse
	// dropped arenas. So the timed set-ups come after untimed ones.
	for _, wl := range cfg.workloads {
		for k := 0; k < cfg.untimedUps; k++ {
			in, _, err := setUp(wl, cfg.seed)
			if err != nil {
				return nil, nil, err
			}
			in.teardown()
		}
	}

	window := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	reps := make([]workloadReport, n)
	warms, wins := make([][]*windowResult, n), make([][]*windowResult, n)
	setupTimes := make([][]time.Duration, n)
	account := func(i int, w *windowResult) {
		live[i].measured(w)
		reps[i].Attempted += w.calls
		reps[i].Failed += w.failed
	}
	checkAndDrop := func(i, r int) {
		for _, e := range live[i].check() {
			reps[i].Errors = append(reps[i].Errors, fmt.Sprintf("round %d: %s", r+1, e))
		}
		live[i].teardown()
		live[i] = nil
	}
	for r := 0; r < cfg.rounds; r++ {
		for i, wl := range cfg.workloads {
			reps[i].Name = wl.name
			in, took, err := setUp(wl, roundSeed(cfg.seed, r))
			if err != nil {
				return nil, nil, err
			}
			live[i] = in
			setupTimes[i] = append(setupTimes[i], took)
			warms[i] = append(warms[i], in.window(0, false))
			w := in.window(window, false)
			account(i, w)
			wins[i] = append(wins[i], w)
			if r < cfg.rounds-1 {
				checkAndDrop(i, r)
			}
		}
	}
	for i := range reps {
		reps[i].EndToEnd, reps[i].Info = endToEndStats(warms[i], wins[i], setupTimes[i])
	}

	var srcs []traceSource
	if cfg.traced {
		slow, err := newDomain(probeDomain, true)
		if err != nil {
			return nil, nil, err
		}
		defer closeDomain(slow)
		for i, in := range live {
			var plain, traced sum
			u := in.window(window, false)
			account(i, u)
			plain.add(u)
			t := in.window(window, true)
			account(i, t)
			traced.add(t)
			reps[i].PerLayer = layerMetrics(in.wl, &traced, &plain, runProbes(in.d, slow))
			for _, w := range in.workers {
				srcs = append(srcs, traceSource{workload: in.wl.name, pid: i, tid: w.id, tr: w.rec})
			}
		}
	}

	for i := range live {
		checkAndDrop(i, cfg.rounds-1)
		reps[i].Correct = len(reps[i].Errors) == 0
	}
	rep.Workloads = reps
	return rep, srcs, nil
}

// runProbes times probeCalls iterations of single public calls on the
// workload's domain with its workers stopped (and map-stall's reader
// still stalled), plus protect on a forced-slow-path domain.
func runProbes(d, slow *domain) map[string]float64 {
	ns := func(probe func(*domain, int), d *domain) float64 {
		start := now()
		probe(d, probeCalls)
		return float64(now()-start) / probeCalls
	}
	return map[string]float64{
		"lease.probe_pin_unpin_ns":         ns(probePinUnpin, d),
		"guardpool.probe_guard_release_ns": ns(probeGuardRelease, d),
		"core.probe_protect_ns":            ns(probeProtect, d),
		"core.probe_protect_slow_ns":       ns(probeProtect, slow),
		"reclaim.probe_retire_ns":          ns(probeAllocRetire, d),
		"mem.probe_alloc_free_ns":          ns(probeAllocFree, d),
	}
}

func printReport(rep *report) {
	for _, w := range rep.Workloads {
		fmt.Printf("== %s  correct=%v  attempted=%d  failed=%d\n", w.Name, w.Correct, w.Attempted, w.Failed)
		for _, e := range w.Errors {
			fmt.Printf("   CHECK FAILED: %s\n", e)
		}
		for _, group := range []struct {
			title string
			defs  []metricDef
			stats map[string]stat
		}{{"end-to-end", endToEnd, w.EndToEnd}, {"informational", informational, w.Info}} {
			if group.stats == nil {
				continue
			}
			fmt.Printf("   %s (median [q1, q3] over rounds):\n", group.title)
			for _, def := range group.defs {
				s := group.stats[def.name]
				fmt.Printf("     %-22s %14.4f %-7s [%.4f, %.4f]", def.name, s.Median, def.unit, s.Q1, s.Q3)
				if s.Samples > 0 {
					fmt.Printf("  samples=%d", s.Samples)
				}
				fmt.Println()
			}
		}
		if w.PerLayer != nil {
			fmt.Println("   per-layer (traced pass):")
			for _, def := range perLayer {
				fmt.Printf("     %-34s %14.4f %s\n", def.name, w.PerLayer[def.name].Value, def.unit)
			}
		}
	}
}

// cpuModel reads the CPU model for the report's host metadata.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
