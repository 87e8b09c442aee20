package bench

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

// GuardOverheadResult is one point of the guard-runtime overhead
// experiment: the same stack push/pop workload driven through one of the
// public API's guard acquisition paths. The guard-pool telemetry explains
// the throughput: pinned pays one pool acquisition per worker, guardless
// turns per-operation leases into cache hits, acquire-per-op shows what
// the per-P lease hint saves, and the oversubscribed run adds parking.
type GuardOverheadResult struct {
	Mode       string // acquisition path
	Goroutines int
	Guards     int
	Mops       float64
	Telemetry  wfe.Telemetry
}

// GuardOverhead measures the guard runtime's overhead per acquisition
// path (cmd/wfebench -ablation guards). All runs use the WFE scheme: the
// experiment isolates the runtime above the scheme, not the scheme.
func GuardOverhead(opt Options) []GuardOverheadResult {
	opt = opt.Defaults()
	guards := fixedThreads()
	return []GuardOverheadResult{
		runGuardMode("pinned", guards, guards, opt),
		runGuardMode("guardless", guards, guards, opt),
		runGuardMode("guardless-8x", 8*guards, guards, opt),
		runGuardMode("acquire-per-op", guards, guards, opt),
	}
}

func runGuardMode(mode string, goroutines, guards int, opt Options) GuardOverheadResult {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      wfe.WFE,
		Capacity:    1 << 20,
		MaxGuards:   guards,
		EraFreq:     opt.EraFreq,
		CleanupFreq: opt.CleanupFreq,
		MaxAttempts: opt.MaxAttempts,
	})
	if err != nil {
		panic(err)
	}
	s := wfe.NewStack[uint64](d)

	var (
		stop  atomic.Bool
		total atomic.Uint64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if opt.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			ops := uint64(0)
			defer func() { total.Add(ops) }()
			// Every push is popped straight back, so the live set stays
			// at one block per worker: a push error means the harness
			// itself is broken.
			check := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			switch mode {
			case "pinned":
				g := d.Pin()
				defer d.Unpin(g)
				for !stop.Load() {
					check(s.TryPushGuarded(g, uint64(w)))
					s.PopGuarded(g)
					ops += 2
				}
			case "guardless", "guardless-8x":
				for !stop.Load() {
					check(s.TryPush(uint64(w)))
					s.Pop()
					ops += 2
				}
			case "acquire-per-op":
				for !stop.Load() {
					g, err := d.AcquireGuard(context.Background())
					if err != nil {
						return
					}
					check(s.TryPushGuarded(g, uint64(w)))
					s.PopGuarded(g)
					g.Release()
					ops += 2
				}
			}
		}(w)
	}
	time.Sleep(opt.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	return GuardOverheadResult{
		Mode:       mode,
		Goroutines: goroutines,
		Guards:     guards,
		Mops:       float64(total.Load()) / elapsed.Seconds() / 1e6,
		Telemetry:  d.Telemetry(),
	}
}
