package wfe_test

// Failpoint integration: the deterministic injection sites compiled into
// the runtime's hot paths must let tests provoke the schedules the
// scheduler rarely exposes — an aborted switch drain, an allocation
// stall racing a scheme switch, a Domain closed while under memory
// pressure — and the runtime must come through each clean.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/failpoint"
)

// TestFailpointSwitchDrainAborts injects a one-shot fault into the
// switch drain loop: Switch must surface ErrSwitchBusy, leave the
// incumbent scheme in place with the pause gate lifted, and succeed on
// the next attempt once the trigger is spent.
func TestFailpointSwitchDrainAborts(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	site, ok := failpoint.Lookup("switch-drain")
	if !ok {
		t.Fatal("switch-drain site not registered")
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: wfe.WFE, Capacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	site.Arm(failpoint.Trigger{OneShot: true, Err: errors.New("injected drain fault")})
	if err := d.Switch(wfe.EBR); !errors.Is(err, wfe.ErrSwitchBusy) {
		t.Fatalf("Switch under an injected drain fault = %v, want ErrSwitchBusy", err)
	}
	if got := d.Scheme(); got != wfe.WFE {
		t.Fatalf("aborted switch left scheme %v, want the incumbent WFE", got)
	}
	// The pause gate must be lifted: guardless operations proceed.
	s := wfe.NewStack[uint64](d)
	if err := s.TryPush(7); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Pop(); !ok || v != 7 {
		t.Fatalf("structure broken after aborted switch: got (%d, %v)", v, ok)
	}
	// OneShot spent itself: the retry goes through.
	if err := d.Switch(wfe.EBR); err != nil {
		t.Fatalf("Switch after the trigger fired: %v", err)
	}
	if got := d.Scheme(); got != wfe.EBR {
		t.Fatalf("scheme after successful switch = %v, want EBR", got)
	}
}

// TestFailpointAllocStallDuringSwitchDrain is the satellite acceptance
// bar: widen every allocation with an injected sleep while guardless
// writers churn, then run scheme switches through the drain gate. A
// stalled allocator holds its guard longer than the scheduler would
// ever arrange, but the drain must still terminate — completing or
// aborting with ErrSwitchBusy at its deadline, never deadlocking.
func TestFailpointAllocStallDuringSwitchDrain(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	site, ok := failpoint.Lookup("arena-alloc")
	if !ok {
		t.Fatal("arena-alloc site not registered")
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: wfe.WFE, Capacity: 1 << 12, MaxGuards: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 32)
	site.Arm(failpoint.Trigger{Prob: 0.05, Seed: 42, Sleep: time.Millisecond})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				if err := m.TryPut((i+g*37)%128, i); err != nil {
					t.Errorf("TryPut under sleep-only injection surfaced %v", err)
					return
				}
			}
		}(uint64(g))
	}

	done := make(chan error, 1)
	go func() {
		var last error
		for i, kind := 0, wfe.EBR; i < 6; i++ {
			last = d.SwitchWithin(kind, 100*time.Millisecond)
			if kind == wfe.EBR {
				kind = wfe.WFE
			} else {
				kind = wfe.EBR
			}
		}
		done <- last
	}()
	select {
	case last := <-done:
		if last != nil && !errors.Is(last, wfe.ErrSwitchBusy) {
			t.Fatalf("switch storm surfaced %v, want nil or ErrSwitchBusy", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("switch drain deadlocked under the injected alloc stall")
	}

	stop.Store(true)
	wg.Wait()
	failpoint.DisarmAll()
	// Uninjected, the drain completes outright.
	if err := d.Switch(wfe.HP); err != nil {
		t.Fatalf("Switch after disarm: %v", err)
	}
	if _, err := m.TryInsert(999, 1); err != nil {
		t.Fatalf("map broken after switch storm: %v", err)
	}
}

// TestFailpointCloseUnderPressureReapsSampler closes a Domain whose
// arena is exhausted and whose emergency pipeline has been running: the
// background sampler must still be reaped, Close must stay idempotent,
// and the pressure counters must stay readable afterwards.
func TestFailpointCloseUnderPressureReapsSampler(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:       wfe.WFE,
		Capacity:     96,
		MaxGuards:    4,
		AllocRetries: 2,
		AllocBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	if !s.Running() {
		t.Fatal("StartSampler did not return a running sampler")
	}
	// Exhaust the arena with live nodes so the pipeline runs and fails
	// honestly — the Domain is now under sustained pressure.
	st := wfe.NewStack[uint64](d)
	for {
		if err := st.TryPush(1); err != nil {
			break
		}
	}
	if tel := d.Telemetry(); tel.AllocStalls == 0 {
		t.Fatal("fill never stalled: arena not undersized")
	}
	// Let the sampler observe the pressured domain.
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close under pressure: %v", err)
	}
	if s.Running() {
		t.Fatal("sampler still running after Close under pressure")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if tel := d.Telemetry(); tel.AllocStalls == 0 {
		t.Error("pressure counters unreadable after Close")
	}
}

// TestFailpointRefillMissEntersPipeline pins the arena-refill site: an
// injected refill failure makes a cache miss look exhausted, which must
// route the allocation through the emergency pipeline rather than
// panicking — and the pipeline resolves it as soon as the trigger stops
// firing.
func TestFailpointRefillMissEntersPipeline(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	site, ok := failpoint.Lookup("arena-refill")
	if !ok {
		t.Fatal("arena-refill site not registered")
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: wfe.WFE, Capacity: 1 << 10, SpillSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[uint64](d)
	// Burn the bump region (push to exhaustion), then pop everything so
	// the whole arena cycles through retire scans into the caches and the
	// global spill list: from here on, a cache miss can only be served by
	// refill, the path the site fails.
	for {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	for {
		if _, ok := s.Pop(); !ok {
			break
		}
	}
	base := d.Telemetry().AllocStalls
	site.Arm(failpoint.Trigger{EveryNth: 1, OneShot: true, Err: errors.New("injected refill miss")})
	for i := 0; i < 2048; i++ {
		if err := s.TryPush(uint64(i)); err != nil {
			t.Fatalf("TryPush with an injected refill miss surfaced %v", err)
		}
		if d.Telemetry().AllocStalls > base {
			return // the miss routed through the pipeline and resolved
		}
	}
	t.Fatal("injected refill miss never entered the emergency pipeline")
}
