package chaos

import (
	"crypto/sha256"
	"encoding/hex"
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
// oversubscription's parks included, and pins each trajectory across
// commits by its digest in trajectoryDigests.
func TestDeterministicTrajectory(t *testing.T) {
	for _, c := range Catalog() {
		for _, kind := range wfe.AllSchemes() {
			cell := c.Name + "/" + kind.String()
			a, err := Run(kind, c.Scenario)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			b, err := Run(kind, c.Scenario)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if !reflect.DeepEqual(a.Ticks, b.Ticks) {
				t.Errorf("%s: same seed produced different tick samples", cell)
			}
			if a.Summary != b.Summary {
				t.Errorf("%s: same seed produced different summaries:\n%+v\n%+v", cell, a.Summary, b.Summary)
			}
			blob, err := json.MarshalIndent(a, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got, want := hex.EncodeToString(sum[:8]), trajectoryDigests[cell]; got != want {
				t.Errorf("%s: trajectory digest %s, pinned %s; if the change is intended, pin the new digest and record the changed cells in CHANGES.md",
					cell, got, want)
			}
		}
	}
}

// trajectoryDigests pins every cell of the canned matrix, keyed
// scenario/scheme: the first 16 hex digits of the SHA-256 of the
// trajectory's indented JSON, the bytes a recorded wfe-chaos/v1 file
// holds. A change to the engine, a scenario, a scheme or the arena that
// moves any tick shows here as a named cell.
var trajectoryDigests = map[string]string{
	"cooperative/WFE":          "1dc33bea17f2dd64",
	"cooperative/HE":           "096cab38507e56d0",
	"cooperative/HP":           "5d40cdd2db98ec13",
	"cooperative/EBR":          "1f54280848d79058",
	"cooperative/2GEIBR":       "4e6a1f06b2814f33",
	"cooperative/Leak":         "9d06f00c88b41ada",
	"cooperative/WFE-IBR":      "84a2b399deda2d5b",
	"stalled-reader/WFE":       "2ac2f27fbee2106f",
	"stalled-reader/HE":        "e6481e150e91bef3",
	"stalled-reader/HP":        "6058eb05e3763f50",
	"stalled-reader/EBR":       "95497ff39348202a",
	"stalled-reader/2GEIBR":    "2455a0d2c9d60789",
	"stalled-reader/Leak":      "106b18dbd487d4e0",
	"stalled-reader/WFE-IBR":   "46fe4eb4e95b3ccb",
	"preempted-writer/WFE":     "f4b0d04ebf54f888",
	"preempted-writer/HE":      "8c3b974d470d4250",
	"preempted-writer/HP":      "1a14544f222b2832",
	"preempted-writer/EBR":     "ae778eaf1de940bc",
	"preempted-writer/2GEIBR":  "97e5703cfc7a4ef4",
	"preempted-writer/Leak":    "9c3968f1215ac991",
	"preempted-writer/WFE-IBR": "43010b6c539aa850",
	"bursty-churn/WFE":         "4fe3101edea79676",
	"bursty-churn/HE":          "66ce60a2940e8e6b",
	"bursty-churn/HP":          "59b8dead1a2b0ac1",
	"bursty-churn/EBR":         "d7f26fe8730a400f",
	"bursty-churn/2GEIBR":      "b30a7ef09ea63d71",
	"bursty-churn/Leak":        "3eeaeccb22589ba1",
	"bursty-churn/WFE-IBR":     "1c9bf95bcb432f7b",
	"oversubscription/WFE":     "f7aeff76bb65a9ab",
	"oversubscription/HE":      "b68f00204fec77ed",
	"oversubscription/HP":      "5566e8c31be79d94",
	"oversubscription/EBR":     "e555faf35181be31",
	"oversubscription/2GEIBR":  "6424866f8dd0d65a",
	"oversubscription/Leak":    "02587bd1cdc02227",
	"oversubscription/WFE-IBR": "fc17a0c7a598a796",
	"exhaustion-storm/WFE":     "6871cf9d5b62f0f8",
	"exhaustion-storm/HE":      "e977bcb89c9a347a",
	"exhaustion-storm/HP":      "697cd1a88e1adfc9",
	"exhaustion-storm/EBR":     "f17b1cb98aa56213",
	"exhaustion-storm/2GEIBR":  "931ac7f95260556c",
	"exhaustion-storm/Leak":    "7e8b642bdbf4c942",
	"exhaustion-storm/WFE-IBR": "2d98f4e9e00f2f99",
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
