package wfe_test

// Allocation backpressure acceptance tests: the emergency-reclamation
// pipeline must keep a workload alive on an arena sized at roughly half
// its working set under every judged scheme, every structure write must
// surface ErrArenaExhausted when the pipeline genuinely cannot help, and
// the pressure gauge must be visible end to end through Telemetry and the
// OpenMetrics exposition.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
	"wfe/metrics"
)

// nonLeakSchemes is every scheme with a judge — the ones the emergency
// pipeline can actually help.
func nonLeakSchemes() []wfe.SchemeKind {
	var out []wfe.SchemeKind
	for _, kind := range wfe.AllSchemes() {
		if kind != wfe.Leak {
			out = append(out, kind)
		}
	}
	return out
}

// TestExhaustionStormAllSchemes is the headline acceptance bar: eight
// goroutines hammer a guardless HashMap whose working set — the live map
// plus the retire backlog a cadence this lazy accumulates — is about
// twice the arena. Every allocation past the ceiling rides the emergency
// pipeline; the run must finish with zero surfaced errors, must actually
// have entered the pipeline, and must quiesce to a clean census.
func TestExhaustionStormAllSchemes(t *testing.T) {
	for _, kind := range nonLeakSchemes() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const (
				goroutines = 8
				opsPerG    = 4000
				keyRange   = 400
				capacity   = 1 << 10
			)
			d, err := wfe.NewDomain[uint64](wfe.Options{
				Scheme:    kind,
				Capacity:  capacity,
				MaxGuards: goroutines,
				// No cadence scans: the run's retire volume never reaches
				// the threshold, so reclamation happens only when an
				// allocation stalls and forces it.
				CleanupFreq: 1 << 20,
				// Fast era clock so a stalled allocator's own reservation
				// pins only a handful of freshly-retired blocks.
				EraFreq: 2,
				// Small spill batches so one goroutine's emergency frees
				// reach the global pool — and everyone else — quickly. This
				// is load-bearing arithmetic, not tuning: caches spill past
				// 2×SpillSize, so 8 tids can strand 8×2×SpillSize frees in
				// private caches; that figure must stay well under the
				// circulating pool (capacity minus the live set) or a tid
				// whose own retire ring is empty can starve while every
				// free block hides in someone else's cache.
				SpillSize: 16,
				Debug:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := wfe.NewHashMap[uint64](d, 64)
			var surfaced atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := uint64(g)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < opsPerG; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						if rng%8 == 0 {
							m.Get(key)
							continue
						}
						if err := m.TryPut(key, rng); err != nil {
							surfaced.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			if n := surfaced.Load(); n != 0 {
				t.Errorf("%d operation(s) surfaced ErrArenaExhausted despite emergency reclamation", n)
			}
			if d.Telemetry().EmergencyScans == 0 {
				t.Error("storm never entered the emergency pipeline — arena not undersized for the workload")
			}
			for key := uint64(0); key < keyRange; key++ {
				m.Delete(key)
			}
			quiesce.Settle(d)
			if err := quiesce.Check(d, true); err != nil {
				t.Errorf("post-storm quiesce: %v", err)
			}
		})
	}
}

// smallDomain builds a Domain whose arena genuinely cannot satisfy more
// than its capacity in live blocks, with the retry ladder shortened so
// each surfaced error costs microseconds, not the default backoff budget.
func smallDomain(t *testing.T, kind wfe.SchemeKind, capacity int) *wfe.Domain[uint64] {
	t.Helper()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:       kind,
		Capacity:     capacity,
		MaxGuards:    4,
		AllocRetries: 2,
		AllocBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTryVariantsSurfaceExhaustion fills each structure with live nodes —
// which no scheme can reclaim — until its Try* insert surfaces an error,
// and asserts the error is ErrArenaExhausted by errors.Is. WFE (judged:
// the pipeline runs and still fails honestly) and Leak (judge-less: the
// pipeline short-circuits) both land on the same sentinel.
func TestTryVariantsSurfaceExhaustion(t *testing.T) {
	fillUntil := func(t *testing.T, op func() error) error {
		t.Helper()
		for i := 0; i < 1<<12; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		t.Fatal("arena never exhausted: structure is leaking capacity assumptions")
		return nil
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.Leak} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("stack", func(t *testing.T) {
				s := wfe.NewStack[uint64](smallDomain(t, kind, 64))
				err := fillUntil(t, func() error { return s.TryPush(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPush error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("queue", func(t *testing.T) {
				q := wfe.NewQueue[uint64](smallDomain(t, kind, 64))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("wfqueue", func(t *testing.T) {
				q := wfe.NewWFQueue[uint64](smallDomain(t, kind, 128))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("turnqueue", func(t *testing.T) {
				q := wfe.NewTurnQueue[uint64](smallDomain(t, kind, 128))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("hashmap", func(t *testing.T) {
				m := wfe.NewHashMap[uint64](smallDomain(t, kind, 64), 8)
				key := uint64(0)
				err := fillUntil(t, func() error {
					key++
					return m.TryPut(key, key)
				})
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPut error = %v, want ErrArenaExhausted", err)
				}
				if _, err := m.TryInsert(key+1, 7); !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryInsert on the exhausted map = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("tree", func(t *testing.T) {
				tr := wfe.NewTree[uint64](smallDomain(t, kind, 64))
				key := uint64(0)
				err := fillUntil(t, func() error {
					key++
					_, err := tr.TryInsert(key, key)
					return err
				})
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryInsert error = %v, want ErrArenaExhausted", err)
				}
				if err := tr.TryPut(key+1, 7); !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPut on the exhausted tree = %v, want ErrArenaExhausted", err)
				}
			})
		})
	}
}

// TestPanicVariantsWrapSentinel pins the two panicking allocations left
// in the public API, Guard.Alloc and the sentinel a wait-free queue
// constructor allocates: on an exhausted arena each panics with a value
// that errors.Is-matches ErrArenaExhausted and keeps the "arena
// exhausted" substring in its message.
func TestPanicVariantsWrapSentinel(t *testing.T) {
	d := smallDomain(t, wfe.Leak, 16)
	s := wfe.NewStack[uint64](d)
	for {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	g := d.Guard()
	defer g.Release()
	for _, tc := range []struct {
		name  string
		alloc func()
	}{
		{"Guard.Alloc", func() { g.Alloc(2) }},
		{"NewWFQueue", func() { wfe.NewWFQueue[uint64](d) }},
	} {
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			tc.alloc()
		}()
		if recovered == nil {
			t.Fatalf("%s on an exhausted Leak arena did not panic", tc.name)
		}
		err, ok := recovered.(error)
		if !ok || !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("%s: panic value %v is not an error wrapping ErrArenaExhausted", tc.name, recovered)
		}
		if !strings.Contains(err.Error(), "arena exhausted") {
			t.Fatalf("%s: panic message %q lost the %q substring", tc.name, err, "arena exhausted")
		}
	}
}

// TestPanicVariantsLeakNothing holds every structure write to its cleanup
// on failure: once a Leak arena is exhausted, one more write must return
// ErrArenaExhausted and leave the live block count where it was. A write
// that allocates more than one block (a tree insert's leaf and routing
// node) must hand back the blocks it did get; a queue enqueue allocates
// one block, its node. Each row is named for the operation it writes,
// through that operation's Try form.
func TestPanicVariantsLeakNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(d *wfe.Domain[uint64]) func() error // one write
	}{
		{"Stack.Push", func(d *wfe.Domain[uint64]) func() error {
			s := wfe.NewStack[uint64](d)
			return func() error { return s.TryPush(7) }
		}},
		{"Queue.Enqueue", func(d *wfe.Domain[uint64]) func() error {
			q := wfe.NewQueue[uint64](d)
			return func() error { return q.TryEnqueue(7) }
		}},
		{"WFQueue.Enqueue", func(d *wfe.Domain[uint64]) func() error {
			q := wfe.NewWFQueue[uint64](d)
			return func() error { return q.TryEnqueue(7) }
		}},
		{"TurnQueue.Enqueue", func(d *wfe.Domain[uint64]) func() error {
			q := wfe.NewTurnQueue[uint64](d)
			return func() error { return q.TryEnqueue(7) }
		}},
		{"HashMap.Put", func(d *wfe.Domain[uint64]) func() error {
			m := wfe.NewHashMap[uint64](d, 8)
			key := uint64(0)
			return func() error { key++; return m.TryPut(key, key) }
		}},
		{"Tree.Insert", func(d *wfe.Domain[uint64]) func() error {
			tr := wfe.NewTree[uint64](d)
			key := uint64(0)
			return func() error { key++; _, err := tr.TryInsert(key, key); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDomain(t, wfe.Leak, 128)
			write := tc.build(d)
			for i := 0; write() == nil; i++ {
				if i == 1<<12 {
					t.Fatal("arena never exhausted")
				}
			}
			d.FlushGuardCache()
			before := d.ArenaCensus().Live
			if err := write(); !errors.Is(err, wfe.ErrArenaExhausted) {
				t.Fatalf("write on the exhausted arena = %v, want ErrArenaExhausted", err)
			}
			d.FlushGuardCache()
			if after := d.ArenaCensus().Live; after != before {
				t.Errorf("live blocks %d -> %d across one failed write: the write leaked %d block(s)",
					before, after, after-before)
			}
		})
	}
}

// TestPressureGaugeAndMetrics drives a Domain into sustained pressure and
// follows the gauge end to end: Telemetry's backpressure columns and the
// OpenMetrics exposition with its pressure families.
func TestPressureGaugeAndMetrics(t *testing.T) {
	d := smallDomain(t, wfe.WFE, 256)
	s := wfe.NewStack[uint64](d)
	for {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	// Free a little and refill: the pipeline now has retired blocks to
	// recycle, so at least one stall resolves inside it.
	for i := 0; i < 64; i++ {
		s.Pop()
	}
	for i := 0; i < 32; i++ {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	tel := d.Telemetry()
	if tel.AllocStalls == 0 || tel.EmergencyScans == 0 {
		t.Fatalf("pressure counters empty after an exhausted fill: %+v", tel)
	}
	if tel.LastResolve <= 0 {
		t.Fatalf("LastResolve = %v after a stall resolved inside the pipeline, want > 0", tel.LastResolve)
	}
	if ratio := float64(tel.InUse) / float64(tel.Capacity); ratio < 0.5 {
		t.Fatalf("occupancy ratio %.2f implausibly low for a filled arena", ratio)
	}

	reg := metrics.NewRegistry()
	reg.Register("press", d.Telemetry)
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition with pressure families is malformed: %v", err)
	}
	for _, want := range []string{"wfe_arena_pressure", "wfe_alloc_stalls_total", "wfe_emergency_scans_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition is missing %s", want)
		}
	}
}

// TestScavengeCollapsesLazyBacklog pins the quiescent sibling of the
// emergency scan: a drained Domain whose CleanupFreq never fired keeps
// its whole backlog in per-tid rings until Scavenge sweeps them.
func TestScavengeCollapsesLazyBacklog(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      wfe.WFE,
		Capacity:    1 << 12,
		MaxGuards:   2,
		CleanupFreq: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[uint64](d)
	for i := 0; i < 512; i++ {
		if err := s.TryPush(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		s.Pop()
	}
	if got := d.Unreclaimed(); got < 256 {
		t.Fatalf("lazy cadence should have stranded the backlog in rings, Unreclaimed = %d", got)
	}
	freed := d.Scavenge()
	if freed == 0 {
		t.Fatal("Scavenge freed nothing from a fully-retired backlog")
	}
	if got := d.Unreclaimed(); got > 16 {
		t.Errorf("backlog %d survived Scavenge", got)
	}
}
