// Domain-level tests of the public API: guard accounting, telemetry,
// option validation and the generic value slab. The per-structure
// conformance matrix lives in conformance_test.go.
package wfe_test

import (
	"testing"

	"wfe"
)

// testDomain builds a Debug-mode domain; the forceSlow variants are the
// paper's §5 stress configuration for the wait-free schemes.
func testDomain(t testing.TB, kind wfe.SchemeKind, guards, capacity int, forceSlow bool) *wfe.Domain[uint64] {
	t.Helper()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      capacity,
		MaxGuards:     guards,
		EraFreq:       32,
		CleanupFreq:   8,
		ForceSlowPath: forceSlow,
		Debug:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// forEachScheme runs f once per SchemeKind, plus the forced-slow-path
// configurations of the two wait-free schemes.
func forEachScheme(t *testing.T, f func(t *testing.T, kind wfe.SchemeKind, forceSlow bool)) {
	for _, kind := range wfe.AllSchemes() {
		t.Run(kind.String(), func(t *testing.T) { f(t, kind, false) })
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.WFEIBR} {
		t.Run(kind.String()+"-slow", func(t *testing.T) { f(t, kind, true) })
	}
}

// TestValueTypes checks that the value slab really is generic: a pointer-
// and string-bearing struct survives a push/pop round trip untouched.
func TestValueTypes(t *testing.T) {
	type payload struct {
		name string
		data []byte
	}
	d, err := wfe.NewDomain[payload](wfe.Options{Capacity: 256, MaxGuards: 1, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	defer g.Release()
	s := wfe.NewStack[payload](d)
	if err := s.TryPushGuarded(g, payload{name: "x", data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	got, ok := s.PopGuarded(g)
	if !ok || got.name != "x" || len(got.data) != 3 {
		t.Fatalf("Pop = %+v,%v", got, ok)
	}
}

func TestGuardAccounting(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g1 := d.Guard()
	g2 := d.Guard()
	if _, ok := d.TryGuard(); ok {
		t.Fatal("TryGuard succeeded with all guards held")
	}
	g1.Release()
	g3, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed after Release")
	}
	g3.Release()
	g2.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("Guard did not panic with all guards held")
		}
	}()
	d.Guard()
	d.Guard()
	d.Guard()
}

// TestReleaseDropsProtections: a guard abandoned mid-operation (Begin
// without End) must not block reclamation once Released — Release is an
// implicit End. Run under EBR, where a leaked active-epoch announcement
// would otherwise halt the epoch clock and make the backlog grow without
// bound.
func TestReleaseDropsProtections(t *testing.T) {
	d := testDomain(t, wfe.EBR, 2, 1<<16, false)
	s := wfe.NewStack[uint64](d)

	leaker := d.Guard()
	g := d.Guard() // hold the other tid so the leaker's is not just reused
	defer g.Release()
	leaker.Begin() // abandoned operation: no matching End
	leaker.Release()
	const churn = 5000
	for i := uint64(0); i < churn; i++ {
		if err := s.TryPushGuarded(g, i); err != nil {
			t.Fatal(err)
		}
		s.PopGuarded(g)
	}
	if backlog := d.Unreclaimed(); backlog > churn/2 {
		t.Fatalf("backlog %d after %d retires: released guard still blocks the epoch", backlog, churn)
	}
}

func TestNewDomainValidation(t *testing.T) {
	if _, err := wfe.NewDomain[int](wfe.Options{Scheme: wfe.SchemeKind(99)}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := wfe.NewDomain[int](wfe.Options{Capacity: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 30}); err == nil {
		t.Fatal("capacity beyond handle width accepted")
	}
	for name, o := range map[string]wfe.Options{
		"MaxSlots":    {MaxSlots: -1},
		"EraFreq":     {EraFreq: -1},
		"CleanupFreq": {CleanupFreq: -8},
		"MaxAttempts": {MaxAttempts: -1},
		"SpillSize":   {SpillSize: -2048},
	} {
		if _, err := wfe.NewDomain[int](o); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
	// The explicit paper defaults must still be accepted unchanged.
	if _, err := wfe.NewDomain[int](wfe.Options{
		Capacity: 1 << 10, EraFreq: 150, CleanupFreq: 30, MaxAttempts: 16, SpillSize: 64,
	}); err != nil {
		t.Fatalf("explicit defaults rejected: %v", err)
	}
}

// TestSpillTelemetryAndCensus drives a producer/consumer imbalance (one
// guard allocates what another frees) through a tiny SpillSize so blocks
// must round-trip the global segment list, then asserts the batched
// transfers surface in Telemetry and the quiescent census accounts for
// every block.
func TestSpillTelemetryAndCensus(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Capacity:    1 << 12,
		MaxGuards:   2,
		EraFreq:     4,
		CleanupFreq: 4,
		SpillSize:   16,
		Debug:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[uint64](d)
	producer := d.Guard()
	consumer := d.Guard()
	for round := 0; round < 24; round++ {
		for i := uint64(0); i < 256; i++ {
			if err := s.TryPushGuarded(producer, i); err != nil {
				t.Fatal(err)
			}
		}
		for {
			if _, ok := s.PopGuarded(consumer); !ok {
				break
			}
		}
	}
	producer.Release()
	consumer.Release()

	tel := d.Telemetry()
	if tel.ArenaSegPushes == 0 || tel.ArenaSegPops == 0 {
		t.Fatalf("no segment traffic despite cross-guard churn: pushes=%d pops=%d",
			tel.ArenaSegPushes, tel.ArenaSegPops)
	}
	if tel.ArenaBumpHighwater == 0 || tel.ArenaBumpHighwater > uint64(tel.Capacity) {
		t.Fatalf("bump highwater %d out of range (capacity %d)", tel.ArenaBumpHighwater, tel.Capacity)
	}
	c := d.ArenaCensus()
	if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
		t.Fatalf("census leak: %d cached + %d global + %d live + %d bump-free = %d != capacity %d",
			c.Cached, c.Global, c.Live, c.BumpFree, got, c.Capacity)
	}
}

// TestTelemetry checks the WFE-specific counters surface through the
// scheme-agnostic Telemetry snapshot.
func TestTelemetry(t *testing.T) {
	d := testDomain(t, wfe.WFE, 1, 1<<12, true) // forced slow path
	g := d.Guard()
	defer g.Release()
	s := wfe.NewStack[uint64](d)
	for i := uint64(0); i < 200; i++ {
		if err := s.TryPushGuarded(g, i); err != nil {
			t.Fatal(err)
		}
		s.PopGuarded(g)
	}
	tel := d.Telemetry()
	if tel.Scheme != "WFE" {
		t.Fatalf("Scheme = %q", tel.Scheme)
	}
	if tel.Era == 0 {
		t.Fatal("era clock never advanced")
	}
	if tel.SlowPaths == 0 {
		t.Fatal("forced slow path produced no slow paths")
	}
	if tel.Allocs == 0 || tel.Allocs-tel.Frees != tel.InUse {
		t.Fatalf("inconsistent census: %+v", tel)
	}
	if tel.Capacity != 1<<12 {
		t.Fatalf("Capacity = %d", tel.Capacity)
	}
}
