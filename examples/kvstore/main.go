// A concurrent key-value store on the public lock-free HashMap, with the
// reclamation scheme chosen at the command line — the "universal" in
// universal memory reclamation: the same data structure code runs under
// WFE, Hazard Eras, Hazard Pointers, EBR, 2GEIBR or the leaky baseline,
// selected by a wfe.SchemeKind.
//
// The store is driven through the guardless API from several times more
// goroutines than the Domain has guards (MaxGuards defaults to
// GOMAXPROCS): every operation leases a reclamation slot from the guard
// runtime, which is how a server with thousands of request goroutines
// would use the library. A reporter goroutine samples the reclamation
// backlog live (try -scheme EBR -stall to watch an epoch scheme stop
// reclaiming while a stalled reader holds its guard mid-operation). A
// put that finds the arena full gets ErrArenaExhausted back and is
// rejected, as a server would shed the write; the summary counts them.
//
// Run with:
//
//	go run ./examples/kvstore -scheme WFE
//	go run ./examples/kvstore -scheme EBR -stall
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

func main() {
	var (
		schemeName = flag.String("scheme", "WFE", "reclamation scheme (WFE, HE, HP, EBR, 2GEIBR, Leak, WFE-IBR)")
		workers    = flag.Int("workers", 4*runtime.GOMAXPROCS(0), "worker goroutines (guards stay at GOMAXPROCS)")
		duration   = flag.Duration("duration", 3*time.Second, "run time")
		keyRange   = flag.Uint64("keyrange", 100000, "key range")
		stall      = flag.Bool("stall", false, "stall one reader mid-operation (EBR stops reclaiming)")
	)
	flag.Parse()

	kind, err := wfe.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	capacity := 1 << 20
	if kind == wfe.Leak {
		capacity = 1 << 23
	}
	// MaxGuards stays at the GOMAXPROCS default — the worker goroutines
	// share the guards through the guard runtime — except under -stall,
	// where one extra guard absorbs the reader that parks mid-operation
	// for the whole run (otherwise, on GOMAXPROCS=1, the staller would own
	// the only guard and stop the workload instead of the reclamation).
	maxGuards := runtime.GOMAXPROCS(0)
	if *stall {
		maxGuards++
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    kind,
		Capacity:  capacity,
		MaxGuards: maxGuards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer d.Close()
	store := wfe.NewHashMap[uint64](d, int(*keyRange))

	var (
		stop     sync.WaitGroup
		quit     atomic.Bool
		ops      atomic.Uint64
		rejected atomic.Uint64
	)
	for w := 0; w < *workers; w++ {
		stop.Add(1)
		go func(w int) {
			defer stop.Done()
			if *stall && w == 0 {
				// A reader that never finishes its operation: it parks an
				// explicit guard mid-operation for the whole run.
				g, err := d.AcquireGuard(context.Background())
				if err != nil {
					return
				}
				defer g.Release()
				g.Begin()
				for !quit.Load() {
					time.Sleep(time.Millisecond)
				}
				g.End()
				return
			}
			rng := rand.New(rand.NewSource(int64(w) + 99))
			for !quit.Load() {
				key := uint64(rng.Int63n(int64(*keyRange)))
				switch rng.Intn(10) {
				case 0, 1, 2:
					if err := store.TryPut(key, key*2); err != nil {
						rejected.Add(1)
					}
				case 3:
					store.Delete(key)
				default:
					store.Get(key)
				}
				ops.Add(1)
			}
		}(w)
	}

	ticker := time.NewTicker(500 * time.Millisecond)
	deadline := time.After(*duration)
	fmt.Printf("%d goroutines over %d guards\n", *workers, d.Telemetry().MaxGuards)
	fmt.Printf("%-8s %12s %14s %12s\n", "t", "ops", "unreclaimed", "live blocks")
	start := time.Now()
loop:
	for {
		select {
		case <-ticker.C:
			t := d.Telemetry()
			fmt.Printf("%-8s %12d %14d %12d\n",
				time.Since(start).Round(100*time.Millisecond),
				ops.Load(), t.Unreclaimed, t.InUse)
		case <-deadline:
			break loop
		}
	}
	quit.Store(true)
	stop.Wait()
	ticker.Stop()

	t := d.Telemetry()
	fmt.Printf("\n%s: %.2f Mops/s, final backlog %d, arena in use %d/%d, %d puts rejected\n",
		t.Scheme, float64(ops.Load())/time.Since(start).Seconds()/1e6,
		t.Unreclaimed, t.InUse, t.Capacity, rejected.Load())
	fmt.Printf("guard pool: %d acquisitions, %d cache hits (%.1f%% hit rate), %d parks\n",
		t.GuardAcquires, t.GuardCacheHits,
		100*float64(t.GuardCacheHits)/float64(t.GuardCacheHits+t.GuardCacheMisses+1),
		t.GuardParks)
}
