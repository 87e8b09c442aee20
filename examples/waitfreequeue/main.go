// Wait-free memory reclamation under an MPMC queue: the Kogan–Petrank
// wait-free queue (wfe.WFQueue) from the public API, running as a
// multi-producer multi-consumer pipeline with WFE managing every node.
//
// Bolting lock-free reclamation (Hazard Eras, epochs) onto a wait-free
// queue gives its reads unbounded retry loops and lets one stalled
// consumer hold back every retired node. With WFE each reclamation
// operation is bounded (paper Theorem 1) and a stalled guard delays at
// most a bounded set of blocks. This program verifies exactly-once
// delivery, then scavenges the retire rings and checks that only the
// queue's sentinel stays live. Producers and consumers pin a guard for
// their whole run (the hot-loop path of the guard runtime) and drive the
// queue through the Guarded method variants; see examples/waitfreeworkloads
// for all four promoted evaluation structures on one Domain.
//
// Run with:
//
//	go run ./examples/waitfreequeue
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wfe"
)

func main() {
	const (
		producers = 3
		consumers = 3
		perProd   = 200_000
	)

	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    wfe.WFE,
		Capacity:  1 << 20,
		MaxGuards: producers + consumers,
		Debug:     true,
	})
	if err != nil {
		panic(err)
	}
	defer d.Close()
	q := wfe.NewWFQueue[uint64](d)

	var (
		wg        sync.WaitGroup
		delivered atomic.Uint64
		checksum  atomic.Uint64 // sum of everything dequeued
		produced  atomic.Uint64 // sum of everything enqueued
		done      atomic.Bool
	)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g := d.Pin()
			defer d.Unpin(g)
			for i := uint64(0); i < perProd; i++ {
				v := uint64(p)<<32 | i
				if err := q.TryEnqueueGuarded(g, v); err != nil {
					panic(err)
				}
				produced.Add(v) // commutative sum as a cheap checksum
			}
		}(p)
	}

	var consumerWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consumerWG.Add(1)
		go func() {
			defer consumerWG.Done()
			g := d.Pin()
			defer d.Unpin(g)
			for {
				v, ok := q.DequeueGuarded(g)
				if !ok {
					if done.Load() {
						// Confirm emptiness once more after the flag.
						if v, ok := q.DequeueGuarded(g); ok {
							checksum.Add(v)
							delivered.Add(1)
							continue
						}
						return
					}
					continue
				}
				checksum.Add(v)
				delivered.Add(1)
			}
		}()
	}

	wg.Wait()
	done.Store(true)
	consumerWG.Wait()

	fmt.Printf("delivered %d/%d values\n", delivered.Load(), producers*perProd)
	if delivered.Load() != producers*perProd || checksum.Load() != produced.Load() {
		panic("delivery mismatch: queue lost or duplicated values")
	}

	// Each consumer's last, empty dequeue released the node it held, so
	// scanning every retire ring leaves only the sentinel live.
	scavenged := d.Scavenge()
	t := d.Telemetry()
	fmt.Printf("arena: allocs=%d frees=%d live=%d after scavenging %d blocks\n",
		t.Allocs, t.Frees, t.InUse, scavenged)
	fmt.Printf("unreclaimed backlog now: %d blocks; WFE slow paths: %d; era: %d\n",
		t.Unreclaimed, t.SlowPaths, t.Era)
	fmt.Printf("guard runtime: %d pool acquisitions for %d workers (cache hits %d)\n",
		t.GuardAcquires, producers+consumers, t.GuardCacheHits)
	if t.Unreclaimed != 0 || t.InUse != 1 {
		panic("census mismatch: a dequeued node was not reclaimed")
	}
}
