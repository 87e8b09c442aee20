package wfe_test

// Domain.Close lifecycle: the sampler goroutine must die with the Domain
// instead of leaking, and Close must be idempotent and safe on Domains
// that never started one.

import (
	"runtime"
	"testing"
	"time"

	"wfe"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing after a generous deadline — goroutine exits are
// asynchronous, so a single instantaneous count would flake.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizer/timer goroutines to settle
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDomainCloseStopsSamplerGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	s := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	if !s.Running() {
		t.Fatal("StartSampler did not return a running sampler")
	}
	// Let it actually sample before teardown.
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.Running() {
		t.Fatal("sampler still running after Close")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// History and rates stay readable after Close.
	if s.Ticks() == 0 {
		t.Error("sampler collected no ticks before Close")
	}
	waitGoroutines(t, before)
}

func TestDomainCloseWithoutSampler(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close on a sampler-less Domain: %v", err)
	}
}
