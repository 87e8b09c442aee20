package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newArena(t *testing.T, capacity, threads int) *mem.Arena {
	t.Helper()
	return mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: true})
}

func mustNew(t *testing.T, name string, a *mem.Arena, cfg reclaim.Config) reclaim.Scheme {
	t.Helper()
	s, err := New(name, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reclaiming schemes actually free memory; Leak does not.
var reclaiming = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "WFE-IBR-slow"}

func TestUnknownScheme(t *testing.T) {
	if _, err := New("nope", newArena(t, 8, 1), reclaim.Config{}); err == nil {
		t.Fatal("unknown scheme did not error")
	}
}

func TestNamesInstantiable(t *testing.T) {
	for name := range registry {
		a := newArena(t, 8, 2)
		s := mustNew(t, name, a, reclaim.Config{MaxThreads: 2})
		if s.Name() == "" || s.Arena() != a {
			t.Errorf("%s: bad Name/Arena", name)
		}
	}
}

// TestLifecycle drives the full alloc → publish → protect → unlink →
// retire → reclaim path single-threaded and checks the block is eventually
// reused.
func TestLifecycle(t *testing.T) {
	for _, name := range reclaiming {
		t.Run(name, func(t *testing.T) {
			a := newArena(t, 64, 1)
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: 1, CleanupFreq: 1, EraFreq: 1})
			var root atomic.Uint64

			keys := make([]uint64, a.Capacity()+1)
			s.Begin(0)
			h := reclaim.MustAlloc(s, 0)
			keys[h] = 77
			root.Store(h)

			got := s.GetProtected(0, &root, 0, 0)
			if got != h {
				t.Fatalf("GetProtected = %d, want %d", got, h)
			}
			if keys[got] != 77 {
				t.Fatalf("key = %d", keys[got])
			}
			root.Store(0) // unlink
			s.Retire(0, h)
			s.Clear(0)

			// Drive retirements until the block is freed. Allocate/retire
			// scratch blocks to trigger cleanups and epoch/era advances.
			for i := 0; i < 200 && a.Live(h); i++ {
				s.Begin(0)
				x := reclaim.MustAlloc(s, 0)
				s.Retire(0, x)
				s.Clear(0)
			}
			if a.Live(h) {
				t.Fatalf("block never reclaimed (unreclaimed=%d)", s.Unreclaimed())
			}
		})
	}
}

// TestProtectionBlocksReclamation pins a block with a reservation from one
// thread while another retires it and drives cleanup hard; the block must
// survive until the reservation clears.
func TestProtectionBlocksReclamation(t *testing.T) {
	for _, name := range reclaiming {
		t.Run(name, func(t *testing.T) {
			a := newArena(t, 4096, 2)
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: 2, CleanupFreq: 1, EraFreq: 1})
			var root atomic.Uint64

			// keys is indexed by handle; a scratch block stores 0, so a
			// protected block recycled as one reads back as corrupted.
			keys := make([]uint64, a.Capacity()+1)
			h := reclaim.MustAlloc(s, 1)
			keys[h] = 123
			root.Store(h)

			// Thread 0 protects h.
			s.Begin(0)
			got := s.GetProtected(0, &root, 0, 0)
			if got != h {
				t.Fatalf("protected %d, want %d", got, h)
			}

			// Thread 1 unlinks and retires it, then churns.
			root.Store(0)
			s.Retire(1, h)
			for i := 0; i < 300; i++ {
				s.Begin(1)
				x := reclaim.MustAlloc(s, 1)
				keys[x] = 0
				s.Retire(1, x)
				s.Clear(1)
				if !a.Live(h) {
					t.Fatalf("block freed while protected (iteration %d)", i)
				}
				if keys[h] != 123 {
					t.Fatalf("protected block corrupted")
				}
			}

			// Release and confirm reclamation.
			s.Clear(0)
			for i := 0; i < 300 && a.Live(h); i++ {
				s.Begin(1)
				x := reclaim.MustAlloc(s, 1)
				s.Retire(1, x)
				s.Clear(1)
			}
			if a.Live(h) {
				t.Fatal("block not reclaimed after protection cleared")
			}
		})
	}
}

// TestStepHistogramsAllSchemes pins the uniform bounded-steps telemetry
// the shared retire-side runtime provides: after a churn with constant
// era movement, every reclaiming scheme — the era and interval schemes
// (HE, WFE, 2GEIBR, WFE-IBR) whose protect loops iterate, and HP/EBR
// alike — must report a nonzero step histogram and cleanup-scan counters
// through its Retirer. (Before the runtime, WFE-IBR and 2GEIBR had no
// step tracking at all and their P99Steps read 0.)
func TestStepHistogramsAllSchemes(t *testing.T) {
	for _, name := range reclaiming {
		t.Run(name, func(t *testing.T) {
			a := newArena(t, 4096, 2)
			// EraFreq 1 advances the clock on every allocation, so the
			// era/interval protect loops must take re-publication steps.
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: 2, CleanupFreq: 4, EraFreq: 1})
			var root atomic.Uint64
			root.Store(reclaim.MustAlloc(s, 1))
			for i := 0; i < 200; i++ {
				s.Begin(0)
				s.GetProtected(0, &root, 0, 0)
				s.Clear(0)
				s.Begin(1)
				old := root.Swap(reclaim.MustAlloc(s, 1))
				s.Retire(1, pack.Handle(old))
				s.Clear(1)
			}
			rt := s.Retirer()
			if rt.MaxSteps() == 0 {
				t.Fatal("MaxSteps reads 0 after churn")
			}
			if p99 := rt.StepQuantile(0.99); p99 == 0 {
				t.Fatal("P99Steps reads 0 after churn")
			} else if p99 > rt.MaxSteps() {
				t.Fatalf("p99 %d exceeds max %d", p99, rt.MaxSteps())
			}
			if st := rt.Stats(); st.Scans == 0 || st.Blocks == 0 {
				t.Fatalf("no cleanup-scan telemetry after churn: %+v", st)
			}
		})
	}
}

// TestLeakNeverFrees checks the baseline leaks by design.
func TestLeakNeverFrees(t *testing.T) {
	a := newArena(t, 256, 1)
	s := mustNew(t, "Leak", a, reclaim.Config{MaxThreads: 1})
	hs := make([]mem.Handle, 0, 100)
	for i := 0; i < 100; i++ {
		h := reclaim.MustAlloc(s, 0)
		hs = append(hs, h)
		s.Retire(0, h)
	}
	for _, h := range hs {
		if !a.Live(h) {
			t.Fatal("leak baseline freed a block")
		}
	}
	if s.Unreclaimed() != 100 {
		t.Fatalf("unreclaimed = %d, want 100", s.Unreclaimed())
	}
}

// TestConcurrentChurn is the cross-scheme safety stress: workers share a
// bank of published locations, replacing nodes and reading them under
// protection. The arena runs in debug mode, so any premature free surfaces
// as a use-after-free panic; additionally every slot's key is its own
// handle, so readers verify they never observe a recycled slot's identity
// drifting mid-read.
func TestConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, name := range reclaiming {
		t.Run(name, func(t *testing.T) {
			const (
				workers = 4
				bank    = 32
				iters   = 20000
			)
			a := newArena(t, 1<<16, workers)
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: workers, EraFreq: 16, CleanupFreq: 8})

			// keys is indexed by handle and written with plain stores
			// before each publish, so the race detector flags a block
			// recycled under a reader.
			keys := make([]uint64, a.Capacity()+1)
			var slots [bank]atomic.Uint64
			for i := range slots {
				h := reclaim.MustAlloc(s, 0)
				keys[h] = h
				slots[i].Store(h)
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := uint64(tid)*2654435761 + 1
					for i := 0; i < iters; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						idx := int(rng % bank)
						src := &slots[idx]
						s.Begin(tid)
						if rng&1 == 0 { // reader
							v := s.GetProtected(tid, src, 0, 0)
							if h := pack.Handle(v); h != 0 {
								if keys[h] != h {
									panic("observed corrupted node")
								}
							}
						} else { // replacer
							n := reclaim.MustAlloc(s, tid)
							keys[n] = n
							old := src.Swap(n)
							if h := pack.Handle(old); h != 0 {
								s.Retire(tid, h)
							}
						}
						s.Clear(tid)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestEBRStallBlocksReclamation demonstrates EBR's blocking behaviour (the
// paper's core motivation): a thread stalled inside an operation pins the
// epoch and unreclaimed memory grows; bounded schemes free regardless.
func TestEBRStallBlocksReclamation(t *testing.T) {
	a := newArena(t, 1<<14, 2)
	s := mustNew(t, "EBR", a, reclaim.Config{MaxThreads: 2, CleanupFreq: 1, EraFreq: 1})

	s.Begin(0) // thread 0 stalls: active, never clears

	before := s.Unreclaimed()
	for i := 0; i < 500; i++ {
		s.Begin(1)
		x := reclaim.MustAlloc(s, 1)
		s.Retire(1, x)
		s.Clear(1)
	}
	if got := s.Unreclaimed(); got < before+400 {
		t.Fatalf("EBR reclaimed despite stalled thread: unreclaimed=%d", got)
	}

	s.Clear(0) // stall ends
	for i := 0; i < 50; i++ {
		s.Begin(1)
		x := reclaim.MustAlloc(s, 1)
		s.Retire(1, x)
		s.Clear(1)
	}
	if got := s.Unreclaimed(); got > 100 {
		t.Fatalf("EBR failed to catch up after stall: unreclaimed=%d", got)
	}
}

// TestBoundedSchemesTolerateStall is the counterpart: WFE, HE, HP and IBR
// keep memory bounded while a reader sits inside an operation, because its
// reservations only pin the blocks of *that* operation.
func TestBoundedSchemesTolerateStall(t *testing.T) {
	for _, name := range []string{"WFE", "HE", "HP", "2GEIBR", "WFE-IBR"} {
		t.Run(name, func(t *testing.T) {
			a := newArena(t, 1<<14, 2)
			s := mustNew(t, name, a, reclaim.Config{MaxThreads: 2, CleanupFreq: 1, EraFreq: 1})

			var root atomic.Uint64
			h := reclaim.MustAlloc(s, 1)
			root.Store(h)

			// Thread 0 stalls holding one protected block.
			s.Begin(0)
			s.GetProtected(0, &root, 0, 0)

			for i := 0; i < 500; i++ {
				s.Begin(1)
				x := reclaim.MustAlloc(s, 1)
				s.Retire(1, x)
				s.Clear(1)
			}
			if got := s.Unreclaimed(); got > 100 {
				t.Fatalf("%s: unreclaimed grew to %d despite stalled reader", name, got)
			}
			if !a.Live(h) {
				t.Fatal("stalled reader's block was freed")
			}
			s.Clear(0)
		})
	}
}

// TestWaitFreeProgressUnderEraStorm checks that WFE's GetProtected finishes
// promptly while another thread increments the era as fast as it can — the
// scenario where HE's loop can live-lock. A generous wall-clock deadline
// stands in for the step bound (measured precisely in the boundedsteps
// example).
func TestWaitFreeProgressUnderEraStorm(t *testing.T) {
	a := newArena(t, 1<<16, 2)
	s := mustNew(t, "WFE", a, reclaim.Config{MaxThreads: 2, EraFreq: 1, CleanupFreq: 1, MaxAttempts: 4})

	// keys is indexed by handle; the storm's blocks store 0, so the
	// protected block recycled as one reads back as corrupted.
	keys := make([]uint64, a.Capacity()+1)
	var root atomic.Uint64
	h := reclaim.MustAlloc(s, 1)
	keys[h] = 99
	root.Store(h)

	stop := make(chan struct{})
	var stormOps atomic.Uint64
	go func() { // era storm from tid 1: every alloc advances the era
		for {
			select {
			case <-stop:
				return
			default:
			}
			x := reclaim.MustAlloc(s, 1)
			keys[x] = 0
			s.Retire(1, x)
			stormOps.Add(1)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	reads := 0
	for time.Now().Before(deadline) && reads < 50000 {
		got := s.GetProtected(0, &root, 0, 0)
		if got != h {
			t.Fatalf("GetProtected = %d, want %d", got, h)
		}
		if keys[got] != 99 {
			t.Fatal("protected block corrupted")
		}
		s.Clear(0)
		reads++
	}
	close(stop)
	if reads < 50000 {
		t.Fatalf("only %d reads under era storm (storm ops %d): progress not wait-free-ish",
			reads, stormOps.Load())
	}
}
