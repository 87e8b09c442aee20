package main

import (
	"maps"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func defNames(defs []metricDef) []string {
	var ns []string
	for _, d := range defs {
		ns = append(ns, d.name)
	}
	return slices.Sorted(slices.Values(ns))
}

// TestCatalogMatchesBenchmarkJSON holds BENCHMARK.json and the program to
// the same workloads and metrics, with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program's -seconds default %d", bf.RunSeconds, runSeconds)
	}
	var wls, progWls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	for _, w := range workloads {
		progWls = append(progWls, w.name)
	}
	if !slices.Equal(wls, progWls) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wls, progWls)
	}
	for _, c := range []struct {
		section string
		file    []boundedMetric
		prog    []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.file {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !slices.Equal(got, c.prog) {
			t.Errorf("BENCHMARK.json %s %v, program %v", c.section, got, c.prog)
		}
	}
	for _, n := range slices.Concat(wls, defNames(endToEnd), defNames(perLayer), defNames(informational)) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
	}
}

// TestSmokeAllWorkloads runs every workload through both passes in one
// round with a 50 ms window, with no untimed set-ups. Every check must
// pass, and every catalogued metric, and no other, must be emitted.
func TestSmokeAllWorkloads(t *testing.T) {
	rep, _, err := run(config{workloads: workloads, seed: 7, seconds: 0.05, rounds: 1, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workload reports, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range rep.Workloads {
		if !w.Correct {
			t.Errorf("%s: checks failed: %v", w.Name, w.Errors)
		}
		if w.Attempted == 0 {
			t.Errorf("%s: no calls attempted", w.Name)
		}
		for _, c := range []struct {
			kind string
			got  []string
			want []metricDef
		}{
			{"end-to-end", slices.Sorted(maps.Keys(w.EndToEnd)), endToEnd},
			{"informational", slices.Sorted(maps.Keys(w.Info)), informational},
			{"per-layer", slices.Sorted(maps.Keys(w.PerLayer)), perLayer},
		} {
			if want := defNames(c.want); !slices.Equal(c.got, want) {
				t.Errorf("%s: %s metrics %v, want %v", w.Name, c.kind, c.got, want)
			}
		}
		if w.Name == "map-batch" {
			if got := w.PerLayer["batch.items_per_batch"].Value; got != batchWidth {
				t.Errorf("map-batch: batch.items_per_batch = %v, want %d", got, batchWidth)
			}
		}
	}
}
