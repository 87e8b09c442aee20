package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	s := func(q1, med, q3 float64) stat { return stat{Q1: q1, Median: med, Q3: q3} }
	base := s(98, 100, 102)
	for _, c := range []struct {
		name         string
		cur          stat
		higherBetter bool
		want         string
	}{
		{"identical", s(98, 100, 102), true, "same"},
		{"within bound both ways", s(95, 97, 99), true, "same"},
		{"throughput fell past the bound", s(80, 82, 84), true, "worse"},
		{"throughput rose past the bound", s(118, 120, 122), true, "better"},
		{"latency rose past the bound", s(118, 120, 122), false, "worse"},
		{"latency fell past the bound", s(80, 82, 84), false, "better"},
		{"quartiles straddle the bound", s(85, 90, 95), true, "unresolved"},
	} {
		if got := judge(base, c.cur, 0.10, c.higherBetter); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsCountsWorse(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []boundedMetric{{Name: "throughput_mops", Unit: "Mop/s", Better: "higher", Bound: 0.1}}}
	rep := func(med float64) *report {
		return &report{Workloads: []workloadReport{{
			Name:     "map-churn",
			EndToEnd: map[string]stat{"throughput_mops": {Q1: med, Median: med, Q3: med}},
		}}}
	}
	var out strings.Builder
	if n := compareReports(&out, bf, rep(4), rep(3)); n != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("4 -> 3 Mop/s: %d worse, output %q", n, out.String())
	}
	out.Reset()
	if n := compareReports(&out, bf, rep(4), rep(4.1)); n != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("4 -> 4.1 Mop/s: %d worse, output %q", n, out.String())
	}
}

// TestLoadSideDirectoryUsesSpreadBetweenRuns writes five one-run reports,
// each with no spread inside it, and checks that a directory of them is
// judged on the spread between the runs' medians.
func TestLoadSideDirectoryUsesSpreadBetweenRuns(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []float64{100, 90, 110, 95, 105} {
		r := report{Workloads: []workloadReport{{
			Name:     "map-stall",
			EndToEnd: map[string]stat{"footprint_blocks": newStat("blocks", []float64{v}, 0)},
			Info:     map[string]stat{"throughput_mops": newStat("Mop/s", []float64{v / 10, v / 10}, 0)},
		}}}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	side, err := loadSide(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(side.Workloads) != 1 {
		t.Fatalf("%d workloads, want 1", len(side.Workloads))
	}
	w := side.Workloads[0]
	if got, want := w.EndToEnd["footprint_blocks"], newStat("blocks", []float64{100, 90, 110, 95, 105}, 0); got.Q1 != want.Q1 || got.Median != want.Median || got.Q3 != want.Q3 || got.Unit != "blocks" {
		t.Errorf("footprint_blocks %+v, want %+v", got, want)
	}
	if got := w.Info["throughput_mops"]; len(got.Values) != 5 || got.Median != 10 {
		t.Errorf("throughput_mops %+v, want five run medians around 10", got)
	}
	// 100 -> 100 with runs spread ±5%: the quartiles straddle a 2% bound.
	if v := judge(w.EndToEnd["footprint_blocks"], w.EndToEnd["footprint_blocks"], 0.02, false); v != "unresolved" {
		t.Errorf("same set against itself at a 2%% bound: %s, want unresolved", v)
	}
}
