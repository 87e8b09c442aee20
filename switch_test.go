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
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/failpoint"
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
		// aggressive EraFreq/CleanupFreq match the rest of the test suite.
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

	// Fixed work: the switch comes once the storm has completed half its
	// operations on `from`, and the workers finish the rest on `to`.
	const (
		workers      = 4
		opsPerWorker = 1000
		switchAt     = workers * opsPerWorker / 2
	)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ops := 0; ops < opsPerWorker; ops++ {
				if err := s.TryPush(ops); err != nil {
					t.Error(err)
					return
				}
				if ops%2 == 1 {
					s.Pop()
				}
				completed.Add(1)
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
wait: // for switchAt completed operations, or for every worker to fail
	for completed.Load() < switchAt {
		select {
		case <-finished:
			break wait
		default:
			runtime.Gosched()
		}
	}
	if err := d.Switch(to); err != nil {
		t.Fatalf("Switch(%v -> %v): %v", from, to, err)
	}
	if got := d.Scheme(); got != to {
		t.Fatalf("Scheme() = %v after Switch, want %v", got, to)
	}
	<-finished

	for {
		if _, ok := s.Pop(); !ok {
			break
		}
	}
	d.Scavenge()
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
	d.Scavenge()
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

// TestSwitchStorm is the live-switching storm. On one Debug-arena Domain,
// 32 goroutines over 4 guards run the per-op churn (push, pop, put,
// delete, get, a pinned insert-delete pair) and the batch entry points at
// widths 2, 8 and 32 (TryMultiPut, MultiDelete, MultiGet, TryPushAll,
// PopN, a pinned TryMultiPutGuarded-MultiDeleteGuarded pair). The
// arena-alloc failpoint injects allocation faults, forcing the batch
// writes' partial-progress paths, and retirer-scan skips scans. The main
// goroutine rotates Domain.Switch through every scheme twice, one hop per
// fixed count of completed worker ops, so the switch gate drains guards
// that are mid-burst and the Leak dwells' backlog is handed to the next
// scheme. A 1 ms sampler reads Telemetry while the hops run: its
// cumulative counters must never step backwards. The storm ends on WFE,
// drains through the batch paths with the faults disarmed, and must pass
// the quiescent census with every hop and every batch call counted.
func TestSwitchStorm(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	for name, trig := range map[string]failpoint.Trigger{
		"arena-alloc":  {Prob: 0.002, Seed: 17, Err: errors.New("injected alloc fault")},
		"retirer-scan": {Prob: 0.01, Seed: 29, Err: errors.New("injected scan skip")},
	} {
		site, ok := failpoint.Lookup(name)
		if !ok {
			t.Fatalf("%s site not registered", name)
		}
		site.Arm(trig)
	}
	const guards, goroutines, keys = 4, 32, 512
	opsPerWorker := 1000
	if testing.Short() {
		opsPerWorker = 250
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme: wfe.WFE, Capacity: 1 << 16, MaxGuards: guards,
		EraFreq: 8, CleanupFreq: 4, Debug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampler := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond, History: 1 << 12})
	m := wfe.NewHashMap[uint64](d, 64)
	st := wfe.NewStack[uint64](d)

	// The Domain starts on rotation[0], so hop i moves to rotation[i%7] and
	// the last hop lands on WFE again.
	rotation := wfe.AllSchemes()
	hops := 2 * len(rotation)
	total := goroutines * opsPerWorker
	opsPerHop := uint64(total / (hops + 1))
	hop := make(chan struct{}, uint64(total)/opsPerHop) // one slot per send: no worker blocks
	var ops, bursts, exhausted atomic.Uint64
	var otherErr atomic.Pointer[error]
	// write reports whether a write succeeded. ErrArenaExhausted, which the
	// injected faults provoke, is counted; any other error fails the test.
	write := func(err error) bool {
		if errors.Is(err, wfe.ErrArenaExhausted) {
			exhausted.Add(1)
		} else if err != nil {
			otherErr.CompareAndSwap(nil, &err)
		}
		return err == nil
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 3))
			buf := make([]uint64, 32)
			for i := 0; i < opsPerWorker; i++ {
				key := uint64(rng.Intn(keys))
				k := buf[:[]int{2, 8, 32}[rng.Intn(3)]] // keys double as values
				for j := range k {
					k[j] = uint64(rng.Intn(keys))
				}
				op := rng.Intn(12)
				switch op {
				case 0:
					write(st.TryPush(key))
				case 1:
					st.Pop()
				case 2:
					write(m.TryPut(key, key))
				case 3:
					m.Delete(key)
				case 4:
					m.Get(key)
				case 5:
					g := d.Pin()
					if _, err := m.TryInsertGuarded(g, key, key); write(err) {
						m.DeleteGuarded(g, key)
					}
					d.Unpin(g)
				case 6:
					_, err := m.TryMultiPut(k, k)
					write(err)
				case 7:
					m.MultiDelete(k)
				case 8:
					m.MultiGet(k)
				case 9:
					_, err := st.TryPushAll(k)
					write(err)
				case 10:
					st.PopN(len(k))
				default:
					g := d.Pin()
					if _, err := m.TryMultiPutGuarded(g, k, k); write(err) {
						m.MultiDeleteGuarded(g, k)
						bursts.Add(1)
					}
					d.Unpin(g)
				}
				if op >= 6 {
					bursts.Add(1) // every batch call counts one BatchOps
				}
				if ops.Add(1)%opsPerHop == 0 {
					hop <- struct{}{}
				}
			}
		}(w)
	}
	for i := 1; i <= hops; i++ {
		<-hop
		if err := d.Switch(rotation[i%len(rotation)]); err != nil {
			t.Errorf("hop %d to %v: %v", i, rotation[i%len(rotation)], err)
			break
		}
		// One sampler row on the new scheme before the next hop, so every
		// hop has rows on both sides.
		for n := sampler.Ticks(); sampler.Ticks() == n; {
			runtime.Gosched()
		}
	}
	wg.Wait()
	sampler.Stop()
	if p := otherErr.Load(); p != nil {
		t.Fatalf("a write failed with %v; only ErrArenaExhausted may surface", *p)
	}

	failpoint.DisarmAll()
	for len(st.PopN(64)) > 0 {
	}
	drain := make([]uint64, 64)
	for lo := 0; lo < keys; lo += len(drain) {
		for j := range drain {
			drain[j] = uint64(lo + j)
		}
		m.MultiDelete(drain)
	}
	d.Scavenge()
	if err := quiesce.Check(d, true); err != nil {
		t.Fatal(err)
	}
	tel := d.Telemetry()
	if tel.SchemeSwitches != uint64(hops) {
		t.Errorf("SchemeSwitches = %d, want %d", tel.SchemeSwitches, hops)
	}
	if b := bursts.Load(); b == 0 || tel.BatchOps < b {
		t.Errorf("BatchOps = %d after %d bursts", tel.BatchOps, b)
	}

	rows := sampler.History()
	if len(rows) < 2 {
		t.Fatalf("sampler kept %d rows, want at least 2", len(rows))
	}
	counters := func(r wfe.Telemetry) [5]uint64 {
		return [5]uint64{r.ScanScans, r.ScanBlocks, r.SlowPaths, r.MaxSteps, r.SchemeSwitches}
	}
	for i := 1; i < len(rows); i++ {
		a, b := counters(rows[i-1]), counters(rows[i])
		for j := range a {
			if b[j] < a[j] {
				t.Errorf("sampler row %d (%s): [ScanScans ScanBlocks SlowPaths MaxSteps SchemeSwitches] went backwards, %v -> %v",
					i, rows[i].Scheme, a, b)
				break
			}
		}
	}
	t.Logf("%d ops, %d batch calls (BatchOps %d), %d hops, %d ErrArenaExhausted, %d sampler rows",
		ops.Load(), bursts.Load(), tel.BatchOps, tel.SchemeSwitches, exhausted.Load(), len(rows))
}
