package bench

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wfe"
)

func TestExperimentTableCoversThePaper(t *testing.T) {
	// Every evaluation figure must be regenerable on the shipped
	// structures: 5a/5c (WFQueue, TurnQueue) plus 6–11 (the one-bucket
	// HashMap list, HashMap, Tree × two workloads).
	wantDS := map[string]string{
		"5a": "wfqueue", "5c": "turnqueue",
		"6": "list", "7": "hashmap", "8": "tree",
		"9": "list", "10": "hashmap", "11": "tree",
	}
	if len(Experiments) != len(wantDS) {
		t.Fatalf("%d experiments, want %d", len(Experiments), len(wantDS))
	}
	for id, ds := range wantDS {
		exp, err := FindExperiment(id)
		if err != nil {
			t.Fatalf("figure %s missing: %v", id, err)
		}
		if exp.DS != ds {
			t.Errorf("figure %s uses %s, want %s", id, exp.DS, ds)
		}
		if len(exp.Schemes) != 6 {
			t.Errorf("figure %s runs %d schemes, want 6", id, len(exp.Schemes))
		}
	}
}

func TestFigurePanelAliases(t *testing.T) {
	a, err := FindExperiment("5b")
	if err != nil || a.ID != "5a" {
		t.Fatalf("5b should alias 5a, got %v %v", a.ID, err)
	}
	d, err := FindExperiment("5d")
	if err != nil || d.ID != "5c" {
		t.Fatalf("5d should alias 5c, got %v %v", d.ID, err)
	}
	if _, err := FindExperiment("99"); err == nil {
		t.Fatal("unknown figure did not error")
	}
}

func TestWorkloadMixesSumTo100(t *testing.T) {
	for _, w := range []Workload{WriteHeavy, ReadMostly} {
		if w.Insert+w.Delete+w.GetPct+w.PutPct != 100 {
			t.Errorf("workload %s sums to %d", w.Name, w.Insert+w.Delete+w.GetPct+w.PutPct)
		}
	}
}

func TestPrefillKeysDistinctAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := prefillKeys(1000, 100000, rng)
	if len(keys) != 1000 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly increasing at %d", i)
		}
	}
	// Clamped when the range is smaller than the request.
	small := prefillKeys(50, 10, rng)
	if len(small) != 10 {
		t.Fatalf("clamped prefill = %d keys, want 10", len(small))
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind wfe.SchemeKind
		slow bool
	}{
		{"WFE", wfe.WFE, false}, {"WFE-slow", wfe.WFE, true},
		{"WFE-IBR", wfe.WFEIBR, false}, {"WFE-IBR-slow", wfe.WFEIBR, true},
		{"2GEIBR", wfe.TwoGEIBR, false}, {"Leak", wfe.Leak, false},
	} {
		kind, slow, err := ParseScheme(tc.name)
		if err != nil || kind != tc.kind || slow != tc.slow {
			t.Errorf("ParseScheme(%q) = %v, %v, %v; want %v, %v", tc.name, kind, slow, err, tc.kind, tc.slow)
		}
	}
	for _, bad := range []string{"HE-slow", "wfe", ""} {
		if _, _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) did not error", bad)
		}
	}
}

func TestPrefillLoadsEveryStructure(t *testing.T) {
	for _, ds := range DSNames {
		d, err := wfe.NewDomain[uint64](wfe.Options{MaxGuards: 1, Capacity: 1 << 12, Debug: true})
		if err != nil {
			t.Fatal(err)
		}
		kv := BuildPublicKV(ds, d, 1000)
		Prefill(d, kv, ds, 300, 1000)
		if n := kv.Len(); n != 300 {
			t.Errorf("%s: Len after prefill = %d, want 300", ds, n)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	exp, _ := FindExperiment("7")
	exp.Schemes = []string{"WFE", "EBR"}
	opt := Options{
		Threads:  []int{2},
		Duration: 50 * time.Millisecond,
		Prefill:  500,
		KeyRange: 1000,
	}
	results := Run(exp, opt)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Mops <= 0 || r.Ops == 0 {
			t.Errorf("%s: no throughput measured: %+v", r.Scheme, r)
		}
		if r.Exhausted {
			t.Errorf("%s: arena exhausted on a smoke run", r.Scheme)
		}
	}
}

func TestRunQueueSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	for _, id := range []string{"5a", "5c"} {
		exp, _ := FindExperiment(id)
		exp.Schemes = []string{"WFE"}
		opt := Options{
			Threads:  []int{2},
			Duration: 50 * time.Millisecond,
			Prefill:  500,
			KeyRange: 1000,
		}
		results := Run(exp, opt)
		if len(results) != 1 || results[0].Mops <= 0 {
			t.Fatalf("figure %s: %+v", id, results)
		}
	}
}

func TestStallOptionKeepsStalledThreadIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	exp, _ := FindExperiment("7")
	exp.Schemes = []string{"EBR"}
	opt := Options{
		Threads:      []int{2},
		Duration:     100 * time.Millisecond,
		Prefill:      500,
		KeyRange:     1000,
		CleanupFreq:  1,
		EraFreq:      1,
		StallThreads: 1,
	}
	r := Run(exp, opt)[0]
	// With one of two threads stalled and EBR pinned, the backlog must be
	// substantial relative to the op count.
	if r.Unreclaimed < 100 {
		t.Fatalf("EBR backlog %f despite stalled reader", r.Unreclaimed)
	}
}

func TestAllFiguresRunnable(t *testing.T) {
	// Integration smoke across every figure: builders, prefill paths and
	// workload dispatch must work for every data structure.
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	opt := Options{
		Threads:  []int{2},
		Duration: 30 * time.Millisecond,
		Prefill:  200,
		KeyRange: 500,
	}
	for _, exp := range Experiments {
		exp := exp
		exp.Schemes = []string{"WFE"}
		t.Run("fig"+exp.ID, func(t *testing.T) {
			results := Run(exp, opt)
			if len(results) != 1 {
				t.Fatalf("got %d results", len(results))
			}
			if results[0].Ops == 0 {
				t.Fatalf("figure %s measured no operations", exp.ID)
			}
		})
	}
}

func TestArenaCapacityAuto(t *testing.T) {
	opt := Options{Prefill: 50000}.Defaults()
	if got := arenaCapacity("WFE", opt, 8); got < 4*opt.Prefill {
		t.Fatalf("auto capacity %d too small for prefill %d", got, opt.Prefill)
	}
	if got := arenaCapacity("Leak", opt, 8); got < 1<<22 {
		t.Fatalf("leak capacity %d too small", got)
	}
	opt.Capacity = 777
	if got := arenaCapacity("WFE", opt, 8); got != 777 {
		t.Fatalf("explicit capacity not honoured: %d", got)
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	opt := Options{
		Threads:  []int{2},
		Duration: 25 * time.Millisecond,
		Prefill:  200,
		KeyRange: 500,
	}
	for name, run := range map[string]func(Options) []AblationResult{
		"slowpath": AblationSlowPath,
		"erafreq":  AblationEraFreq,
		"wfeibr":   AblationWaitFreeIBR,
	} {
		results := run(opt)
		if len(results) == 0 {
			t.Errorf("ablation %s produced no results", name)
		}
		for _, r := range results {
			if r.Mops < 0 {
				t.Errorf("ablation %s: negative throughput: %+v", name, r)
			}
		}
	}
}

func TestMicroScanMeasuresRealCleanups(t *testing.T) {
	for _, linear := range []bool{true, false} {
		r := microScan("WFE", 16, 2000, linear)
		if r.Scans == 0 || r.ScanBlocks == 0 || r.NsPerBlock <= 0 {
			t.Fatalf("microScan(linear=%v) measured nothing: %+v", linear, r)
		}
		wantMode := "sorted"
		if linear {
			wantMode = "linear"
		}
		if r.Mode != wantMode || r.Figure != "micro" || r.Threads != 16 {
			t.Fatalf("mislabelled micro row: %+v", r)
		}
	}
}

func TestScanSummaryPairsModes(t *testing.T) {
	rows := []ScanResult{
		{Figure: "micro", Scheme: "WFE", Threads: 16, Mode: "linear", NsPerBlock: 100, Mops: 1},
		{Figure: "micro", Scheme: "WFE", Threads: 16, Mode: "sorted", NsPerBlock: 25, Mops: 2},
	}
	lines := ScanSummary(rows)
	if len(lines) != 1 {
		t.Fatalf("got %d summary lines, want 1", len(lines))
	}
	if !strings.Contains(lines[0], "4.0x") || !strings.Contains(lines[0], "+100.0%") {
		t.Fatalf("summary line missing speedup/delta: %q", lines[0])
	}
}

func TestReportMarshalsWithSchema(t *testing.T) {
	rep := Report{
		Schema:  ReportSchema,
		Figures: []Result{{Figure: "7", Scheme: "WFE", Threads: 2, Mops: 1.5, P99Steps: 1}},
		ScanAblation: []ScanResult{
			{Figure: "micro", Scheme: "WFE", Mode: "sorted", NsPerBlock: 25},
		},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema":"wfe-bench/v1"`, `"p99_steps":1`, `"scan_ns_per_block":25`, `"unreclaimed_max":0`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("marshalled report missing %s: %s", key, data)
		}
	}
}

func TestShortOptionsScale(t *testing.T) {
	o := ShortOptions(Options{})
	if o.Duration > 200*time.Millisecond || o.Prefill > 10000 || len(o.Threads) == 0 {
		t.Fatalf("ShortOptions not CI-scale: %+v", o)
	}
	// Explicit values survive.
	o = ShortOptions(Options{Duration: time.Second, Prefill: 123, Threads: []int{7}})
	if o.Duration != time.Second || o.Prefill != 123 || len(o.Threads) != 1 || o.Threads[0] != 7 {
		t.Fatalf("ShortOptions clobbered explicit values: %+v", o)
	}
}

func TestResultScanMetricsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	exp, _ := FindExperiment("7")
	exp.Schemes = []string{"WFE"}
	opt := Options{
		Threads:  []int{2},
		Duration: 60 * time.Millisecond,
		Prefill:  500,
		KeyRange: 1000,
	}
	r := Run(exp, opt)[0]
	if r.ScanScans == 0 || r.ScanBlocks == 0 || r.ScanNanos == 0 {
		t.Fatalf("cleanup telemetry missing from result: %+v", r)
	}
	if r.MaxSteps == 0 || r.P99Steps == 0 || r.P99Steps > r.MaxSteps {
		t.Fatalf("step quantiles inconsistent: p99=%d max=%d", r.P99Steps, r.MaxSteps)
	}
	if r.UnreclaimedMax < int(r.Unreclaimed) {
		t.Fatalf("highwater %d below mean %f", r.UnreclaimedMax, r.Unreclaimed)
	}
}

func TestPinnedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	exp, _ := FindExperiment("7")
	exp.Schemes = []string{"WFE"}
	opt := Options{
		Threads:  []int{2},
		Duration: 30 * time.Millisecond,
		Prefill:  200,
		KeyRange: 500,
		Pin:      true,
	}
	if r := Run(exp, opt)[0]; r.Ops == 0 {
		t.Fatal("pinned run measured no operations")
	}
}
