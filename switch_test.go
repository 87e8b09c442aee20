package wfe_test

// Live scheme switching under churn: every ordered scheme pair must
// survive a mid-storm Domain.Switch with the workload still running, and
// the Domain must settle to a clean quiescent census afterwards — the
// acceptance bar for the drain-and-swap design. Run with -race: the
// interesting failures here are ordering bugs between the guard gate, the
// backlog drain and the scheme swap, exactly what the race detector sees.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// switchChurn runs a guardless stack storm over a Domain born on `from`,
// switches it to `to` mid-storm, keeps churning on the new scheme, then
// settles and audits the arena. Workers use only guardless operations:
// they never hold a guard across the switch, so the gate's drain always
// completes.
func switchChurn(t *testing.T, from, to wfe.SchemeKind) {
	t.Helper()
	d, err := wfe.NewDomain[int](wfe.Options{
		Scheme: from,
		// Generous for the Leak endpoints: a Leak origin never recycles a
		// block, so the arena must hold every pre-switch allocation. The
		// aggressive EraFreq/CleanupFreq match the rest of the test suite:
		// Settle's fixed scratch churn must be enough to advance the clock
		// past the storm's last retire window.
		Capacity:    1 << 16,
		MaxGuards:   4,
		EraFreq:     32,
		CleanupFreq: 8,
		Debug:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)

	const opsPerWorker = 6000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ops := 0; !stop.Load() && ops < opsPerWorker; ops++ {
				if err := s.TryPush(ops); err != nil {
					t.Error(err)
					return
				}
				if ops%2 == 1 {
					s.Pop()
				}
			}
		}()
	}

	time.Sleep(500 * time.Microsecond) // let the storm develop on `from`
	if err := d.Switch(to); err != nil {
		t.Fatalf("Switch(%v -> %v): %v", from, to, err)
	}
	if got := d.Scheme(); got != to {
		t.Fatalf("Scheme() = %v after Switch, want %v", got, to)
	}
	time.Sleep(500 * time.Microsecond) // and churn on `to` for a while
	stop.Store(true)
	wg.Wait()

	for {
		if _, ok := s.Pop(); !ok {
			break
		}
	}
	quiesce.Settle(d)
	if err := quiesce.Check(d, to != wfe.Leak); err != nil {
		t.Errorf("post-switch census (%v -> %v): %v", from, to, err)
	}
	if n := d.Telemetry().SchemeSwitches; n != 1 {
		t.Errorf("SchemeSwitches = %d, want 1", n)
	}
}

// TestSwitchMatrixUnderChurn covers all 7x6 ordered pairs. Short mode
// keeps only the pairs touching WFE and EBR — the wait-free contribution
// and the scheme whose reservations (epoch announcements) differ most
// from everyone else's.
func TestSwitchMatrixUnderChurn(t *testing.T) {
	for _, from := range wfe.AllSchemes() {
		for _, to := range wfe.AllSchemes() {
			if from == to {
				continue
			}
			if testing.Short() && from != wfe.WFE && to != wfe.WFE && from != wfe.EBR && to != wfe.EBR {
				continue
			}
			from, to := from, to
			t.Run(from.String()+"_to_"+to.String(), func(t *testing.T) {
				switchChurn(t, from, to)
			})
		}
	}
}

// TestSwitchToSameKindIsNoop pins the fast path: switching to the current
// scheme must not pause, drain, rebuild or count anything.
func TestSwitchToSameKindIsNoop(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Switch(wfe.WFE); err != nil {
		t.Fatal(err)
	}
	if n := d.Telemetry().SchemeSwitches; n != 0 {
		t.Errorf("no-op switch counted: SchemeSwitches = %d, want 0", n)
	}
}

// TestSwitchChainEraFloor walks a chain of switches through every scheme
// (era-clocked and clock-less interleaved) with live blocks surviving
// each hop, then frees them all. The era-floor seeding is what keeps the
// stale allocation stamps on those survivors below each new clock; a
// regression here shows up as a premature free under Debug's
// use-after-free tripwire or a stuck backlog at the end. Telemetry's Era
// must show the same floor: every clocked scheme, EBR's epoch included,
// reads at least the previous clocked reading, and the clock-less HP and
// Leak read 0.
func TestSwitchChainEraFloor(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{
		Scheme: wfe.WFE, Capacity: 1 << 14, MaxGuards: 4,
		EraFreq: 32, CleanupFreq: 8, Debug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	chain := []wfe.SchemeKind{wfe.EBR, wfe.HP, wfe.HE, wfe.Leak, wfe.TwoGEIBR, wfe.WFEIBR, wfe.WFE}
	floor := d.Telemetry().Era
	for hop, kind := range chain {
		// Survivors allocated under the previous scheme stay live across
		// the swap; churn retires a few under the new one right after.
		for i := 0; i < 64; i++ {
			if err := s.TryPush(hop*1000 + i); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Switch(kind); err != nil {
			t.Fatalf("hop %d -> %v: %v", hop, kind, err)
		}
		for i := 0; i < 32; i++ {
			s.Pop()
		}
		era := d.Telemetry().Era
		if kind == wfe.HP || kind == wfe.Leak {
			if era != 0 {
				t.Errorf("hop %d -> %v: Telemetry().Era = %d, want 0 for a clock-less scheme", hop, kind, era)
			}
			continue
		}
		if era < floor {
			t.Errorf("hop %d -> %v: Telemetry().Era = %d, below the previous clocked reading %d", hop, kind, era, floor)
		}
		floor = era
	}
	for {
		if _, ok := s.Pop(); !ok {
			break
		}
	}
	quiesce.Settle(d)
	if err := quiesce.Check(d, true); err != nil {
		t.Errorf("census after the switch chain: %v", err)
	}
	if n := d.Telemetry().SchemeSwitches; n != uint64(len(chain)) {
		t.Errorf("SchemeSwitches = %d, want %d", n, len(chain))
	}
}

// TestSwitchUnknownKindFailsFast pins the validation order: an unknown
// kind must error before the Domain pauses anything.
func TestSwitchUnknownKindFailsFast(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Switch(wfe.SchemeKind(99)); err == nil {
		t.Fatal("Switch(99) succeeded, want error")
	}
	// The Domain must still be fully usable (nothing gated).
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("guards unavailable after a rejected Switch")
	}
	g.Release()
}

// TestSwitchBlocksGuardAcquisition asserts the gate semantics callers
// see: during a switch, Guard() parks instead of panicking and completes
// once the swap finishes.
func TestSwitchBlocksGuardAcquisition(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			g, err := d.AcquireGuard(context.Background())
			if err != nil {
				t.Errorf("AcquireGuard during switches: %v", err)
				return
			}
			g.Release()
		}
	}()
	for i := 0; i < 10; i++ {
		target := wfe.EBR
		if i%2 == 1 {
			target = wfe.WFE
		}
		if err := d.Switch(target); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestSwitchWithinAbortsOnHeldGuard pins the bounded-drain contract
// AutoSwitch relies on: a guard held across the drain wait makes
// SwitchWithin abort with ErrSwitchBusy, the gate lifted and the Domain —
// scheme, counters, guard acquisition — untouched, instead of wedging
// every acquirer behind a switch that cannot complete.
func TestSwitchWithinAbortsOnHeldGuard(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard() // a long-lived explicit guard, the fixed-worker pattern
	if err := d.SwitchWithin(wfe.EBR, 10*time.Millisecond); !errors.Is(err, wfe.ErrSwitchBusy) {
		t.Fatalf("SwitchWithin with a held guard = %v, want ErrSwitchBusy", err)
	}
	if got := d.Scheme(); got != wfe.WFE {
		t.Fatalf("Scheme = %v after an aborted switch, want WFE", got)
	}
	if n := d.Telemetry().SchemeSwitches; n != 0 {
		t.Fatalf("aborted switch counted: SchemeSwitches = %d, want 0", n)
	}
	// The gate must be lifted: acquisition works immediately.
	g2, ok := d.TryGuard()
	if !ok {
		t.Fatal("guards still gated after an aborted SwitchWithin")
	}
	g2.Release()
	g.Release()
	// With the guard home, the same bounded switch completes.
	if err := d.SwitchWithin(wfe.EBR, time.Second); err != nil {
		t.Fatalf("SwitchWithin after releasing the guard: %v", err)
	}
	if got := d.Scheme(); got != wfe.EBR {
		t.Fatalf("Scheme = %v, want EBR", got)
	}
}

// TestGuardNoSpuriousPanicUnderSwitchStorm drives Guard()/Release churn
// from exactly MaxGuards workers — a demand the pool can always satisfy,
// so any "all guards in use" panic is spurious — while the main goroutine
// switches schemes as fast as it can. A Guard that mistakes the switch
// gate for exhaustion panics and crashes the test.
func TestGuardNoSpuriousPanicUnderSwitchStorm(t *testing.T) {
	const workers = 4
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12, MaxGuards: workers})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := d.Guard() // must park across switches, never panic
				g.Release()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		target := wfe.EBR
		if i%2 == 1 {
			target = wfe.WFE
		}
		if err := d.Switch(target); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTelemetryMonotoneAcrossSwitch pins the carry: cumulative counters
// must never step backwards over a swap, or every Sampler trajectory
// recorded across one turns to garbage. The slow-path row forces WFE's
// helping path, so SlowPaths must survive a hop to a scheme without one
// and the hop back to a fresh WFE.
func TestTelemetryMonotoneAcrossSwitch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  wfe.Options
		chain []wfe.SchemeKind
	}{
		{"scans", wfe.Options{Scheme: wfe.HE}, []wfe.SchemeKind{wfe.TwoGEIBR}},
		{"slow-paths", wfe.Options{Scheme: wfe.WFE, ForceSlowPath: true}, []wfe.SchemeKind{wfe.HE, wfe.WFE}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Capacity, tc.opts.MaxGuards = 1<<14, 4
			d, err := wfe.NewDomain[int](tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s := wfe.NewStack[int](d)
			for i := 0; i < 4000; i++ {
				if err := s.TryPush(i); err != nil {
					t.Fatal(err)
				}
				s.Pop()
			}
			before := d.Telemetry()
			if before.ScanScans == 0 {
				t.Fatal("churn produced no cleanup scans; the carry assertion below would be vacuous")
			}
			if tc.opts.ForceSlowPath && before.SlowPaths == 0 {
				t.Fatal("forced slow path recorded no slow paths; the carry assertion below would be vacuous")
			}
			for _, kind := range tc.chain {
				if err := d.Switch(kind); err != nil {
					t.Fatal(err)
				}
				after := d.Telemetry()
				for _, c := range []struct {
					name          string
					before, after uint64
				}{
					{"ScanScans", before.ScanScans, after.ScanScans},
					{"ScanBlocks", before.ScanBlocks, after.ScanBlocks},
					{"MaxSteps", before.MaxSteps, after.MaxSteps},
					{"SlowPaths", before.SlowPaths, after.SlowPaths},
				} {
					if c.after < c.before {
						t.Errorf("%s went backwards across the switch to %v: %d -> %d", c.name, kind, c.before, c.after)
					}
				}
				before = after
			}
		})
	}
}
