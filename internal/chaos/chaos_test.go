package chaos

import (
	"encoding/json"
	"reflect"
	"testing"

	"wfe"
)

// short is a fast stalled-reader scenario for the engine's unit tests;
// the full canned matrix lives in the root package's chaos tests.
func short() Scenario {
	return Scenario{
		Name:       "unit",
		Seed:       42,
		Ticks:      24,
		Workers:    3,
		OpsPerTick: 60,
		Stalls:     []StallSpec{{Worker: 1, From: 6, To: 18, Kind: StallReader}},
		Debug:      true,
	}
}

// TestDeterministicTrajectory is the engine's core promise: the same
// (scenario, scheme, seed) reproduces the identical trajectory — every
// tick sample and the summary, byte for byte — so the robustness matrix
// is a unit test, not a flaky stress. It covers the whole catalog,
// oversubscription's parks included.
func TestDeterministicTrajectory(t *testing.T) {
	for _, c := range Catalog() {
		for _, kind := range wfe.AllSchemes() {
			a, err := Run(kind, c.Scenario)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, kind, err)
			}
			b, err := Run(kind, c.Scenario)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, kind, err)
			}
			if !reflect.DeepEqual(a.Ticks, b.Ticks) {
				t.Errorf("%s/%s: same seed produced different tick samples", c.Name, kind)
			}
			if a.Summary != b.Summary {
				t.Errorf("%s/%s: same seed produced different summaries:\n%+v\n%+v", c.Name, kind, a.Summary, b.Summary)
			}
		}
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	a, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	s := short()
	s.Seed = 43
	b, err := Run(wfe.WFE, s)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ticks, b.Ticks) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestStallWindowMarked(t *testing.T) {
	tr, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ticks) != 24 {
		t.Fatalf("recorded %d ticks, want 24", len(tr.Ticks))
	}
	for _, ts := range tr.Ticks {
		want := ts.Tick >= 6 && ts.Tick < 18
		if ts.Stalled != want {
			t.Errorf("tick %d: Stalled = %v, want %v", ts.Tick, ts.Stalled, want)
		}
	}
}

func TestQuiesceCleanAfterStall(t *testing.T) {
	for _, kind := range wfe.AllSchemes() {
		tr, err := Run(kind, short())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if tr.Summary.Quiesce != "" {
			t.Errorf("%s: post-run quiesce failed: %s", kind, tr.Summary.Quiesce)
		}
	}
}

func TestTrajectoryJSONRoundTrip(t *testing.T) {
	a, err := Run(wfe.HE, short())
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != Schema {
		t.Fatalf("Schema = %q, want %q", a.Schema, Schema)
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Trajectory
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*a, b) {
		t.Fatal("trajectory did not survive a JSON round trip")
	}
}

func TestSamplesConversion(t *testing.T) {
	tr, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	samples := tr.Samples()
	if len(samples) != len(tr.Ticks) {
		t.Fatalf("Samples() returned %d entries for %d ticks", len(samples), len(tr.Ticks))
	}
	for i, s := range samples {
		ts := tr.Ticks[i]
		if s.Tick != ts.Tick || s.Unreclaimed != ts.Unreclaimed ||
			s.ScanScans != ts.ScanScans || s.ScanBlocks != ts.ScanBlocks ||
			s.P99Steps != ts.P99Steps || s.GuardParks != ts.GuardParks {
			t.Fatalf("sample %d diverges from tick: %+v vs %+v", i, s, ts)
		}
	}
}

// TestOversubscriptionParks pins the oversubscribed schedule exactly:
// every tick, each worker beyond MaxGuards finds the pool empty and parks
// once.
func TestOversubscriptionParks(t *testing.T) {
	s := Oversubscription().Scenario
	s.Ticks = 20
	tr, err := Run(wfe.EBR, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((s.Workers - s.MaxGuards) * s.Ticks); tr.Summary.Parks != want {
		t.Errorf("oversubscribed schedule recorded %d guard parks, want %d", tr.Summary.Parks, want)
	}
	if tr.Summary.Quiesce != "" {
		t.Errorf("post-run quiesce failed: %s", tr.Summary.Quiesce)
	}
}

func TestCatalogShape(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Catalog() {
		if c.Name == "" || names[c.Name] {
			t.Fatalf("catalog scenario with empty or duplicate name: %+v", c.Scenario)
		}
		names[c.Name] = true
		if c.Ceiling == nil {
			t.Fatalf("%s: no ceiling table", c.Name)
		}
		if c.Ceiling(wfe.Leak) != 0 {
			t.Errorf("%s: Leak must be ceiling-exempt", c.Name)
		}
		if c.UnboundedFloor <= 0 {
			t.Errorf("%s: no unbounded floor pinned", c.Name)
		}
	}
	for _, want := range []string{"cooperative", "stalled-reader", "preempted-writer", "bursty-churn", "oversubscription"} {
		if !names[want] {
			t.Errorf("catalog missing %q", want)
		}
	}
}
