package advisor

import (
	"strings"
	"testing"
)

// traj builds a trajectory from a backlog series, with scans advancing
// every tick and optional per-tick park increments.
func traj(backlogs []int, parksPerTick uint64) []Sample {
	samples := make([]Sample, len(backlogs))
	var scanBlocks, parks uint64
	for i, b := range backlogs {
		scanBlocks += uint64(b)
		parks += parksPerTick
		samples[i] = Sample{
			Tick:        i,
			Unreclaimed: b,
			ScanScans:   uint64(i + 1),
			ScanBlocks:  scanBlocks,
			P99Steps:    1,
			GuardParks:  parks,
		}
	}
	return samples
}

// ramp appends n ticks growing from start by step each tick.
func ramp(dst []int, start, step, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, start+step*(i+1))
	}
	return dst
}

func flat(dst []int, level, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, level)
	}
	return dst
}

func TestAnalyzeFeatures(t *testing.T) {
	// 10 flat ticks at 100, then a 10-tick ramp +64/tick, then flat again.
	backlogs := flat(nil, 100, 10)
	backlogs = ramp(backlogs, 100, 64, 10)
	backlogs = flat(backlogs, 100, 10)
	p := Analyze(traj(backlogs, 0))
	if p.Ticks != 30 {
		t.Fatalf("Ticks = %d, want 30", p.Ticks)
	}
	if p.Highwater != 100+64*10 {
		t.Errorf("Highwater = %d, want %d", p.Highwater, 100+64*10)
	}
	if p.Final != 100 {
		t.Errorf("Final = %d, want 100", p.Final)
	}
	if p.Median != 100 {
		t.Errorf("Median = %d, want 100", p.Median)
	}
	// The ramp is 10 strictly-growing steps; the streak counter measures
	// run length in steps from the last non-growing tick.
	if p.GrowthStreak < 9 {
		t.Errorf("GrowthStreak = %d, want >= 9", p.GrowthStreak)
	}
	if p.GrowthAmount < 64*9 {
		t.Errorf("GrowthAmount = %d, want >= %d", p.GrowthAmount, 64*9)
	}
	if !p.RetireActivity {
		t.Error("RetireActivity = false, want true")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	p := Analyze(nil)
	if p.Ticks != 0 || p.Highwater != 0 || p.RetireActivity {
		t.Fatalf("Analyze(nil) = %+v, want zero profile", p)
	}
}

func TestAdviseTable(t *testing.T) {
	// Cooperative: small oscillating backlog, scans running, no parks.
	cooperative := func() []Sample {
		var backlogs []int
		for i := 0; i < 60; i++ {
			backlogs = append(backlogs, 80+(i%4)*10)
		}
		return traj(backlogs, 0)
	}
	// Stalled reader: quiet, then a long sustained ramp, then drain.
	stalled := func() []Sample {
		backlogs := flat(nil, 64, 10)
		backlogs = ramp(backlogs, 64, 96, 30)
		backlogs = flat(backlogs, 64, 10)
		return traj(backlogs, 0)
	}
	// Bursty: low median with four short spikes that drain each time. Each
	// spike ramps only 4 ticks (< StallStreakTicks) so it can't read as a
	// sustained stall.
	bursty := func() []Sample {
		var backlogs []int
		for spike := 0; spike < 4; spike++ {
			backlogs = flat(backlogs, 40, 8)
			backlogs = ramp(backlogs, 40, 150, 4) // peaks at 640 >> max(3*median, floor)
			backlogs = append(backlogs, 40)
		}
		backlogs = flat(backlogs, 40, 8)
		return traj(backlogs, 0)
	}
	// Oversubscribed: cooperative backlog shape but heavy park pressure.
	oversubscribed := func() []Sample {
		var backlogs []int
		for i := 0; i < 60; i++ {
			backlogs = append(backlogs, 80+(i%4)*10)
		}
		return traj(backlogs, 2)
	}
	// Idle: no retires ever happened.
	idle := func() []Sample {
		samples := make([]Sample, 20)
		for i := range samples {
			samples[i] = Sample{Tick: i}
		}
		return samples
	}

	cases := []struct {
		name    string
		samples []Sample
		want    string
		reason  string // substring expected in the cited reasons
	}{
		{"cooperative", cooperative(), "EBR", "cooperative schedule"},
		{"stalled_reader", stalled(), "WFE", "stalled-reader signature"},
		{"bursty", bursty(), "HE", "intermittent stalls"},
		{"oversubscribed", oversubscribed(), "HE", "oversubscription"},
		{"idle", idle(), "EBR", "no retire activity"},
		{"empty", nil, "EBR", "no retire activity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := Advise(tc.samples)
			if rec.Scheme != tc.want {
				t.Fatalf("Advise = %q (profile %+v), want %q", rec.Scheme, rec.Profile, tc.want)
			}
			if len(rec.Reasons) == 0 || !strings.Contains(strings.Join(rec.Reasons, " "), tc.reason) {
				t.Errorf("Reasons %q do not mention %q", rec.Reasons, tc.reason)
			}
		})
	}
}

func TestAdviseIsDeterministic(t *testing.T) {
	backlogs := flat(nil, 64, 10)
	backlogs = ramp(backlogs, 64, 96, 30)
	samples := traj(backlogs, 1)
	a := Advise(samples)
	for i := 0; i < 5; i++ {
		b := Advise(samples)
		if a.Scheme != b.Scheme || a.Profile != b.Profile {
			t.Fatalf("Advise not deterministic: %+v vs %+v", a, b)
		}
	}
}
