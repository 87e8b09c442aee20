// Hostile tests for the observability runtime: the tick sampler's
// allocation-free guarantee, the background Sampler's lifecycle
// (idempotent start, double stop, no leaked goroutine), and trace
// snapshots taken while 8x-oversubscribed guardless churn is writing
// events — run these under -race; the trace reader validates every
// snapshot against the seqlock publication protocol.
package wfe_test

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// sampleSink defeats dead-store elimination in TestSampleAllocFree.
var sampleSink wfe.Telemetry

// TestSampleAllocFree pins down the contract Telemetry's doc comment
// makes: one row of the telemetry time series costs zero heap
// allocations, so a recorder (or the background Sampler) can take it
// every scheduler tick without disturbing the workload it is observing.
func TestSampleAllocFree(t *testing.T) {
	for _, kind := range wfe.AllSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := wfe.NewDomain[uint64](wfe.Options{Scheme: kind, Capacity: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the counters first so Telemetry walks real state, not zeros.
			s := wfe.NewStack[uint64](d)
			for i := uint64(0); i < 256; i++ {
				if err := s.TryPush(i); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 256; i++ {
				s.Pop()
			}
			allocs := testing.AllocsPerRun(200, func() {
				sampleSink = d.Telemetry()
			})
			if allocs != 0 {
				t.Fatalf("Domain.Telemetry allocated %.1f times per call; want 0", allocs)
			}
		})
	}
}

// TestSampleCountsCachedGuardBatches pins the tick row's batch columns: a
// guardless TryMultiPut returns its leased guard to the lease cache with
// the burst still counted on the guard, and Telemetry must see it there
// too, or the Sampler's batch rates read 0 on guardless batch workloads.
func TestSampleCountsCachedGuardBatches(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 64)
	for i := uint64(0); i < 10; i++ {
		if _, err := m.TryMultiPut([]uint64{i, i + 10}, []uint64{i, i}); err != nil {
			t.Fatal(err)
		}
	}
	tel := d.Telemetry()
	if tel.BatchOps != 10 || tel.BatchedItems != 20 {
		t.Fatalf("Telemetry counted %d batches of %d items, want 10 of 20", tel.BatchOps, tel.BatchedItems)
	}
}

// TestSamplerStartStopIdempotent exercises the Sampler lifecycle the way
// a sloppy embedder would: double starts must hand back the same running
// sampler, double stops must be safe, a restart after stop must build a
// fresh one, and no goroutine may outlive its Stop.
func TestSamplerStartStopIdempotent(t *testing.T) {
	baseline := runtime.NumGoroutine()

	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if d.Sampler() != nil {
		t.Fatal("Sampler() non-nil before StartSampler")
	}

	s1 := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	if s1 == nil || !s1.Running() {
		t.Fatal("StartSampler did not return a running sampler")
	}
	if s2 := d.StartSampler(wfe.SamplerConfig{Interval: 5 * time.Millisecond}); s2 != s1 {
		t.Fatal("second StartSampler while running returned a different sampler")
	}
	if d.Sampler() != s1 {
		t.Fatal("Sampler() accessor disagrees with StartSampler")
	}

	// Let it tick at least once so Stop exercises a sampler with history.
	deadline := time.Now().Add(2 * time.Second)
	for s1.Ticks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never ticked")
		}
		time.Sleep(time.Millisecond)
	}

	s1.Stop()
	s1.Stop() // double stop must be a no-op
	if s1.Running() {
		t.Fatal("sampler still Running after Stop")
	}

	s3 := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	if s3 == s1 {
		t.Fatal("StartSampler after Stop returned the stopped sampler")
	}
	if !s3.Running() {
		t.Fatal("restarted sampler not running")
	}
	s3.Stop()

	// The run goroutines must be gone. NumGoroutine is global and noisy,
	// so poll until it settles back to (at most) the baseline.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceSnapshotDuringChurn is the tracing tentpole's hostile case:
// 8x more goroutines than guards hammer the guardless API — with the
// debug arena armed — while a reader thread concurrently snapshots the
// rings and serialises Chrome traces. The seqlock protocol must keep
// every snapshot internally consistent (no torn events), snapshots must
// never stop the writers, and after a quiescent drain the trace must
// still decode as a wfe-trace/v1 artifact. Run with -race.
func TestTraceSnapshotDuringChurn(t *testing.T) {
	const maxGuards = 4
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    wfe.WFE,
		Capacity:  1 << 14,
		MaxGuards: maxGuards,
		Debug:     true,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.TraceEnabled() {
		t.Fatal("Options.Trace did not enable tracing")
	}
	s := wfe.NewStack[uint64](d)
	m := wfe.NewHashMap[uint64](d, 32)

	var stop atomic.Bool
	var wg sync.WaitGroup
	workers := 8 * maxGuards
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				err := s.TryPush(id<<32 | i)
				s.Pop()
				if err == nil {
					_, err = m.TryInsert(id<<8|i%97, i)
				}
				m.Delete(id<<8 | i%97)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}

	// Reader: snapshot and serialise concurrently with the writers, and
	// flip tracing off/on mid-churn to stress the enabled fast path.
	readerDone := make(chan int)
	go func() {
		snapshots := 0
		for !stop.Load() {
			events := d.TraceEvents()
			for _, ev := range events {
				if ev.Kind == "" {
					panic("torn trace event: empty kind in snapshot")
				}
			}
			if err := d.WriteTrace(io.Discard); err != nil {
				panic(err)
			}
			if snapshots%8 == 3 {
				d.SetTraceEnabled(false)
				d.SetTraceEnabled(true)
			}
			snapshots++
		}
		readerDone <- snapshots
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	snapshots := <-readerDone
	if snapshots == 0 {
		t.Fatal("reader never completed a snapshot")
	}

	quiesce.Settle(d)
	if err := quiesce.Check(d, true); err != nil {
		t.Fatalf("quiesce after traced churn: %v", err)
	}

	// The final trace must decode as a Chrome trace-event artifact.
	var buf bytes.Buffer
	if err := d.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   any    `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Schema != "wfe-trace/v1" {
		t.Fatalf("trace schema = %q, want wfe-trace/v1", doc.Schema)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events after churn")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("trace event %d missing name/ph: %+v", i, ev)
		}
	}
	if len(d.TraceEvents()) == 0 {
		t.Fatal("TraceEvents empty after churn")
	}
}
