package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json: the workloads, and each metric's unit,
// direction and (end-to-end only) regression bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadSide reads one side of a comparison: a -json report, or a directory
// of them, one run each. A single report's quartiles are the spread
// between its windows (set-ups, for setup_s), which is not the spread
// between runs, and footprint_blocks has one reading per run, so its
// quartiles collapse to it. A directory instead gives every metric one
// value per run, that run's median, and its quartiles are the spread
// between the runs: use one for a two-set agreement.
func loadSide(path string) (*report, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		var r report
		return &r, readJSON(path, &r)
	}
	files, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := make([]report, len(files))
	for i, f := range files {
		if err := readJSON(f, &runs[i]); err != nil {
			return nil, err
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no .json reports", path)
	}
	return mergeRuns(runs), nil
}

// mergeRuns folds several runs into one report in which each workload's
// end-to-end and informational metrics hold the runs' medians as values.
func mergeRuns(runs []report) *report {
	var order []string
	byName := map[string]*workloadReport{}
	for _, r := range runs {
		for _, w := range r.Workloads {
			m, ok := byName[w.Name]
			if !ok {
				m = &workloadReport{Name: w.Name, EndToEnd: map[string]stat{}, Info: map[string]stat{}}
				byName[w.Name] = m
				order = append(order, w.Name)
			}
			for _, p := range [][2]map[string]stat{{m.EndToEnd, w.EndToEnd}, {m.Info, w.Info}} {
				for k, s := range p[1] {
					acc := p[0][k]
					acc.Unit, acc.Values = s.Unit, append(acc.Values, s.Median)
					p[0][k] = acc
				}
			}
		}
	}
	merged := &report{Schema: runs[0].Schema, Host: runs[0].Host, Seconds: runs[0].Seconds}
	for _, name := range order {
		w := byName[name]
		for _, ms := range []map[string]stat{w.EndToEnd, w.Info} {
			for k, s := range ms {
				ms[k] = newStat(s.Unit, s.Values, 0)
			}
		}
		merged.Workloads = append(merged.Workloads, *w)
	}
	return merged
}

// judge compares cur against base for one metric. worseBy is the change
// as a share of base, positive when cur is worse. The verdict uses the
// extremes over both sides' quartiles: worse or better only when every
// pairing is past the bound, same only when every pairing is within it,
// and unresolved when the quartiles straddle the bound.
func judge(base, cur stat, bound float64, higherBetter bool) string {
	if base.Median == 0 {
		return "unresolved"
	}
	worseBy := func(c, b float64) float64 {
		if higherBetter {
			return (b - c) / base.Median
		}
		return (c - b) / base.Median
	}
	lo, hi := worseBy(cur.Q1, base.Q1), worseBy(cur.Q1, base.Q1)
	for _, c := range []float64{cur.Q1, cur.Q3} {
		for _, b := range []float64{base.Q1, base.Q3} {
			lo, hi = min(lo, worseBy(c, b)), max(hi, worseBy(c, b))
		}
	}
	switch {
	case lo > bound:
		return "worse"
	case hi < -bound:
		return "better"
	case lo >= -bound && hi <= bound:
		return "same"
	}
	return "unresolved"
}

// compareReports writes one line per workload × end-to-end metric and
// returns how many read worse. The informational metrics follow with
// their change and no verdict.
func compareReports(w io.Writer, bf *benchmarkFile, base, cur *report) int {
	worse := 0
	byName := map[string]*workloadReport{}
	for i := range cur.Workloads {
		byName[cur.Workloads[i].Name] = &cur.Workloads[i]
	}
	line := func(wl, name, unit string, b, c stat, verdict string) {
		fmt.Fprintf(w, "%-14s %-18s %14.4f -> %14.4f %-6s %+7.2f%%  %s\n",
			wl, name, b.Median, c.Median, unit, 100*ratio(c.Median-b.Median, b.Median), verdict)
	}
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s only in the base report\n", bw.Name)
			continue
		}
		for _, m := range bf.EndToEnd {
			b, okb := bw.EndToEnd[m.Name]
			c, okc := cw.EndToEnd[m.Name]
			if !okb || !okc {
				fmt.Fprintf(w, "%-14s %-18s missing\n", bw.Name, m.Name)
				continue
			}
			v := judge(b, c, m.Bound, m.Better == "higher")
			if v == "worse" {
				worse++
			}
			line(bw.Name, m.Name, m.Unit, b, c, fmt.Sprintf("%s (bound %.0f%%)", v, 100*m.Bound))
		}
		for _, m := range informational {
			if b, c := bw.Info[m.name], cw.Info[m.name]; b.Unit != "" && c.Unit != "" {
				line(bw.Name, m.name, m.unit, b, c, "info")
			}
		}
	}
	return worse
}

// runCompare is the -compare mode: exit status 1 when any metric reads
// worse, 2 when the inputs cannot be read.
func runCompare(benchPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wfeperf -compare [-benchmark BENCHMARK.json] base.json|base-dir new.json|new-dir")
		return 2
	}
	var bf benchmarkFile
	err := readJSON(benchPath, &bf)
	var base, cur *report
	if err == nil {
		base, err = loadSide(args[0])
	}
	if err == nil {
		cur, err = loadSide(args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfeperf: %v\n", err)
		return 2
	}
	worse := compareReports(os.Stdout, &bf, base, cur)
	fmt.Printf("%d worse\n", worse)
	if worse > 0 {
		return 1
	}
	return 0
}
