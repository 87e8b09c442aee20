package wfe

// White-box tests for the Sampler's window — the circular ring of rows
// and the advisor verdict judged over it — its recommendation callback
// and the auto-switch hysteresis: the pieces with deterministic synthetic
// inputs, driven by calling tick directly. The black-box sampler
// behaviour (real Domain, real goroutine) lives in observability_test.go.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wfe/advisor"
)

// syntheticRows returns a sample source yielding rows with Allocs
// counting up by step per call — enough signal to tell rows apart.
func syntheticRows(step uint64) func() Telemetry {
	var n uint64
	return func() Telemetry {
		n += step
		return Telemetry{Allocs: n, Frees: n, InUse: 0}
	}
}

// TestSamplerHistoryWrapsOldestFirst pins the circular buffer's public
// contract: once more ticks than History have run, History() returns
// exactly the last History rows, oldest first, with no seam at the wrap
// point.
func TestSamplerHistoryWrapsOldestFirst(t *testing.T) {
	const hist, ticks = 4, 11
	s := newSampler(syntheticRows(1), SamplerConfig{History: hist})
	for i := 0; i < ticks; i++ {
		s.tick()
	}
	got := s.History()
	if len(got) != hist {
		t.Fatalf("History() length %d, want %d", len(got), hist)
	}
	for i, row := range got {
		want := uint64(ticks - hist + i + 1) // rows are 1-based in Allocs
		if row.Allocs != want {
			t.Fatalf("History()[%d].Allocs = %d, want %d (wraparound misordered: %+v)", i, row.Allocs, want, got)
		}
	}
	if s.Ticks() != ticks {
		t.Fatalf("Ticks() = %d, want %d", s.Ticks(), ticks)
	}
}

// TestSamplerOnRecommendationFiresOnSchemeChange pins the
// OnRecommendation contract: the callback runs on the first tick and then
// only on a tick whose recommended scheme differs from the last one,
// however many ticks repeat a verdict.
func TestSamplerOnRecommendationFiresOnSchemeChange(t *testing.T) {
	var row Telemetry
	tick := 0
	var fired []string
	s := newSampler(func() Telemetry { return row }, SamplerConfig{
		OnRecommendation: func(r advisor.Recommendation) {
			fired = append(fired, fmt.Sprintf("%d:%s", tick, r.Scheme))
		},
	})
	// Four idle ticks (no retire activity reads as EBR), then a backlog
	// growing 100 blocks a tick while scans run: the stalled-reader
	// signature, WFE once the growth streak from tick 3 reaches
	// StallStreakTicks.
	for ; tick < 16; tick++ {
		if tick >= 4 {
			row.Unreclaimed += 100
			row.ScanScans++
		}
		s.tick()
	}
	want := []string{"0:EBR", fmt.Sprintf("%d:WFE", 3+advisor.StallStreakTicks)}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("OnRecommendation fired %v, want %v", fired, want)
	}
}

// regimeRow is tick i of a synthetic trajectory that changes regime
// every few ticks: a quiet backlog, a stalled reader (the backlog grows
// past StallMinGrowth a tick while scans run), and an arena living above
// PressureThreshold with emergency scans firing. A window over it reads
// differently at every tick, and its verdict depends on the order the
// window is judged in.
func regimeRow(i int) Telemetry {
	row := Telemetry{Unreclaimed: 100, ScanScans: uint64(i), ScanBlocks: uint64(30 * i),
		P99Steps: 2, GuardParks: uint64(i / 3), InUse: 10, Capacity: 100}
	switch phase := i % 40; {
	case phase >= 10 && phase < 22:
		row.Unreclaimed += (phase - 9) * 2 * advisor.StallMinGrowth
	case phase >= 28 && phase < 35:
		row.InUse, row.EmergencyScans = 95, uint64(i)
	}
	return row
}

// adviceSample is the advisor's reading of tick i's row.
func adviceSample(i int, row Telemetry) advisor.Sample {
	return advisor.Sample{
		Tick: i, Unreclaimed: row.Unreclaimed, ScanScans: row.ScanScans,
		ScanBlocks: row.ScanBlocks, P99Steps: row.P99Steps, GuardParks: row.GuardParks,
		Pressure: float64(row.InUse) / float64(row.Capacity), EmergencyScans: row.EmergencyScans,
	}
}

// TestSamplerRecommendationAbsentBeforeFirstTick pins that a fresh
// sampler has no verdict: Recommendation reports false until the first
// tick has judged a window.
func TestSamplerRecommendationAbsentBeforeFirstTick(t *testing.T) {
	s := newSampler(func() Telemetry { return regimeRow(0) }, SamplerConfig{History: 12})
	if _, ok := s.Recommendation(); ok {
		t.Fatal("Recommendation() reported a verdict before the first tick")
	}
	s.tick()
	if _, ok := s.Recommendation(); !ok {
		t.Fatal("Recommendation() reported no verdict after the first tick")
	}
}

// matchesAdviseEveryTick runs ticks ticks of the regime trajectory
// through a sampler with the given History and fails unless, after every
// tick, the live recommendation is exactly advisor.Advise over the last
// History ticks' samples in tick order — scheme, reasons and profile
// alike. It returns the schemes the verdict reached.
func matchesAdviseEveryTick(t *testing.T, hist, ticks int) map[string]bool {
	t.Helper()
	i := 0
	s := newSampler(func() Telemetry { return regimeRow(i) }, SamplerConfig{History: hist})
	var stream []advisor.Sample
	seen := map[string]bool{}
	for ; i < ticks; i++ {
		s.tick()
		stream = append(stream, adviceSample(i, regimeRow(i)))
		want := advisor.Advise(stream[max(0, len(stream)-hist):])
		got, ok := s.Recommendation()
		if !ok {
			t.Fatalf("tick %d: no recommendation", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: live recommendation\n%+v\n!= Advise over the window\n%+v", i, got, want)
		}
		seen[got.Scheme] = true
	}
	return seen
}

// TestSamplerRecommendationMatchesAdviseEveryTick pins the window's
// contract while it is still filling: with a History longer than the
// run, the window is the whole stream, and after every tick the live
// recommendation is advisor.Advise over every sample so far.
func TestSamplerRecommendationMatchesAdviseEveryTick(t *testing.T) {
	const ticks = 120
	matchesAdviseEveryTick(t, ticks+8, ticks)
}

// TestSamplerRecommendationMatchesAdviseAcrossWrap pins the same
// contract once the ring has wrapped many times: after every tick the
// live recommendation is advisor.Advise over the last History samples,
// oldest first. A rotated or misordered window changes the streak and
// spike features, and the regimes change every few ticks precisely to
// make order matter.
func TestSamplerRecommendationMatchesAdviseAcrossWrap(t *testing.T) {
	seen := matchesAdviseEveryTick(t, 12, 120)
	for _, scheme := range []string{"EBR", "WFE", "HP"} {
		if !seen[scheme] {
			t.Errorf("trajectory never drove the verdict to %s (saw %v); the test no longer covers it", scheme, seen)
		}
	}
}

// TestSamplerWindowForgetsStall pins the recency the bounded window
// buys: once a stall's ticks have left a small History, the stall no
// longer drives the verdict.
func TestSamplerWindowForgetsStall(t *testing.T) {
	const hist = 16
	var row Telemetry
	s := newSampler(func() Telemetry { return row }, SamplerConfig{History: hist})
	for i := 0; i < 100; i++ {
		row.Unreclaimed += 2 * advisor.StallMinGrowth
		row.ScanScans++
		s.tick()
	}
	if rec, _ := s.Recommendation(); rec.Scheme != "WFE" {
		t.Fatalf("inside the stall the verdict is %q, want WFE", rec.Scheme)
	}
	row.Unreclaimed = 100
	for i := 0; i < hist; i++ {
		row.ScanScans++
		s.tick()
	}
	if n := len(s.History()); n != hist {
		t.Fatalf("History() holds %d rows, want %d", n, hist)
	}
	if rec, _ := s.Recommendation(); rec.Scheme != "EBR" {
		t.Fatalf("%d quiet ticks after the stall the verdict is %q, want EBR: %v", hist, rec.Scheme, rec.Reasons)
	}
}

// rec builds a minimal recommendation naming a scheme.
func rec(scheme string) advisor.Recommendation {
	return advisor.Recommendation{Scheme: scheme}
}

// autoSampler builds a stopped sampler with the switch hooks stubbed,
// recording every fired switch.
func autoSampler(current string) (*Sampler, *[]string) {
	fired := &[]string{}
	s := newSampler(func() Telemetry { return Telemetry{} }, SamplerConfig{AutoSwitch: true})
	cur := current
	s.current = func() string { return cur }
	s.switchTo = func(name string) error {
		*fired = append(*fired, name)
		cur = name // a real Switch changes the current scheme
		return nil
	}
	return s, fired
}

// TestAutoSwitchHysteresisFiresAfterStreak pins the basic trigger: the
// same non-current verdict autoSwitchAfter ticks in a row fires exactly
// one switch, and the streak resets afterwards.
func TestAutoSwitchHysteresisFiresAfterStreak(t *testing.T) {
	s, fired := autoSampler("EBR")
	for i := 0; i < autoSwitchAfter-1; i++ {
		s.maybeSwitch(rec("WFE"))
	}
	if len(*fired) != 0 {
		t.Fatalf("switch fired after only %d/%d verdicts: %v", autoSwitchAfter-1, autoSwitchAfter, *fired)
	}
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 1 || (*fired)[0] != "WFE" {
		t.Fatalf("fired = %v, want exactly [WFE]", *fired)
	}
	// The recommendation now matches the (switched) current scheme: no
	// further fires however long it persists.
	for i := 0; i < 10; i++ {
		s.maybeSwitch(rec("WFE"))
	}
	if len(*fired) != 1 {
		t.Fatalf("re-fired on a now-current recommendation: %v", *fired)
	}
}

// TestAutoSwitchHysteresisNeverFiresOnFlap is the satellite's flap test:
// a synthetic trajectory alternating verdicts tick over tick must never
// accumulate a streak, however long it runs.
func TestAutoSwitchHysteresisNeverFiresOnFlap(t *testing.T) {
	s, fired := autoSampler("EBR")
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			s.maybeSwitch(rec("WFE"))
		} else {
			s.maybeSwitch(rec("HE"))
		}
	}
	if len(*fired) != 0 {
		t.Fatalf("flapping advisor fired %d switches: %v", len(*fired), *fired)
	}
}

// TestAutoSwitchHysteresisResetOnCurrent pins the reset rule: a verdict
// for the current scheme clears a partial streak, so W,W,current,W,W,W
// fires only at the end of the fresh three-streak.
func TestAutoSwitchHysteresisResetOnCurrent(t *testing.T) {
	s, fired := autoSampler("EBR")
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("EBR")) // back to current: streak must reset
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 0 {
		t.Fatalf("fired across a reset streak: %v", *fired)
	}
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 1 {
		t.Fatalf("fired = %v, want one switch after the fresh streak", *fired)
	}
}

// TestAutoSwitchDisabledWithoutHooks pins the safety default: a sampler
// without the Domain's switch hooks (or without AutoSwitch) never acts,
// whatever the advisor says.
func TestAutoSwitchDisabledWithoutHooks(t *testing.T) {
	s := newSampler(func() Telemetry { return Telemetry{} }, SamplerConfig{})
	for i := 0; i < 10; i++ {
		s.maybeSwitch(rec("WFE")) // must not panic on nil hooks
	}
}

// TestAutoSwitchWiringDrivesDomainSwitch pins the StartSampler wiring
// end to end: a sampler started with AutoSwitch gets hooks that really
// switch the Domain's scheme. The sampler goroutine is stopped first so
// the hysteresis can be driven deterministically by hand.
func TestAutoSwitchWiringDrivesDomainSwitch(t *testing.T) {
	d, err := NewDomain[int](Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.StartSampler(SamplerConfig{
		Interval:   time.Hour, // started but effectively inert
		AutoSwitch: true,
	})
	s.Stop()
	if s.switchTo == nil || s.current == nil {
		t.Fatal("AutoSwitch did not wire the sampler's switch hooks")
	}
	if got := s.current(); got != "WFE" {
		t.Fatalf("current() = %q, want WFE", got)
	}
	for i := 1; i < autoSwitchAfter; i++ {
		s.maybeSwitch(rec("EBR"))
		if d.Scheme() != WFE {
			t.Fatalf("switched after %d/%d verdicts", i, autoSwitchAfter)
		}
	}
	s.maybeSwitch(rec("EBR"))
	if d.Scheme() != EBR {
		t.Fatalf("Scheme() = %v after the streak completed, want EBR", d.Scheme())
	}
	if n := d.Telemetry().SchemeSwitches; n != 1 {
		t.Fatalf("SchemeSwitches = %d, want 1", n)
	}
}

// BenchmarkSamplerTick measures the steady-state tick with a full
// ring: storing one slot is O(1), and gathering the window's samples in
// tick order plus the Advise run over them make up the rest.
func BenchmarkSamplerTick(b *testing.B) {
	s := newSampler(syntheticRows(100), SamplerConfig{History: 600})
	for i := 0; i < 600; i++ { // fill the ring so every tick wraps
		s.tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick()
	}
}
