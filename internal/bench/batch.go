package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

// BatchSizes is the sweep of batch widths the ablation measures against
// the per-op baseline (batch size 0 in the results).
var BatchSizes = []int{1, 8, 32, 128}

// BatchResult is one point of the batched-operations ablation
// (cmd/wfebench -ablation batch): the write-heavy 50% put / 50% delete
// hash-map mix driven guardlessly either per operation (BatchSize 0) or
// through the TryMultiPut/MultiDelete batch APIs at one width. Speedup is
// against the per-op baseline at the same scheme and goroutine count —
// the amortization the batch context buys (one lease, one protection
// span on the era/epoch/interval schemes, one retire burst).
type BatchResult struct {
	Scheme     string  `json:"scheme"`
	Goroutines int     `json:"goroutines"`
	BatchSize  int     `json:"batch_size"` // 0 = per-op baseline
	Mops       float64 `json:"mops"`
	Ops        uint64  `json:"ops"`
	Speedup    float64 `json:"speedup"` // vs BatchSize 0, same scheme/goroutines
	// BatchLeaseHitRate is the batch-path lease-cache hit fraction, the
	// telemetry the batch wrappers keep separately from per-op pins.
	BatchLeaseHitRate float64 `json:"batch_lease_hit_rate"`
	Exhausted         bool    `json:"exhausted"`
}

// AblationBatch sweeps batch width × scheme × goroutine count on the
// hash-map mix, pairing every point with its per-op baseline. Batch
// size 1 measures the batch path's fixed overhead (it must stay within
// a few percent of per-op); the wider points measure the amortization.
func AblationBatch(opt Options) []BatchResult {
	opt = opt.Defaults()
	var out []BatchResult
	for _, goroutines := range opt.Threads {
		for _, kind := range wfe.AllSchemes() {
			base := bestBatchPoint(kind, goroutines, 0, opt)
			base.Speedup = 1
			out = append(out, base)
			for _, width := range BatchSizes {
				r := bestBatchPoint(kind, goroutines, width, opt)
				if base.Mops > 0 {
					r.Speedup = r.Mops / base.Mops
				}
				out = append(out, r)
			}
		}
	}
	return out
}

func bestBatchPoint(kind wfe.SchemeKind, goroutines, width int, opt Options) BatchResult {
	best := BatchResult{}
	for rep := 0; rep < opt.Repeat; rep++ {
		r := runBatchPoint(kind, goroutines, width, opt)
		if r.Mops > best.Mops || rep == 0 {
			best = r
		}
	}
	return best
}

func runBatchPoint(kind wfe.SchemeKind, goroutines, width int, opt Options) BatchResult {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      kind,
		Capacity:    arenaCapacity(kind.String(), opt, goroutines),
		MaxGuards:   goroutines,
		EraFreq:     opt.EraFreq,
		CleanupFreq: opt.CleanupFreq,
		MaxAttempts: opt.MaxAttempts,
	})
	if err != nil {
		panic(err)
	}
	if opt.Observe != nil {
		opt.Observe(fmt.Sprintf("batch/%s/b%d/t%d", kind, width, goroutines), d.Telemetry)
	}
	m := wfe.NewHashMap[uint64](d, int(opt.KeyRange))
	if err := Prefill(d, pubHashMap{m}, "hashmap", opt.Prefill, opt.KeyRange); err != nil {
		panic(err)
	}

	var (
		stop      atomic.Bool
		exhausted atomic.Bool
		opsByW    = make([]uint64, goroutines)
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := uint64(0)
			defer func() { opsByW[w] = ops }()
			// done ends the worker on a write's error: the leak baseline
			// filling its fixed arena is a measured Exhausted row, and any
			// other error means the arena was sized wrong.
			done := func(err error) bool {
				if err == nil {
					return false
				}
				if kind != wfe.Leak || !errors.Is(err, wfe.ErrArenaExhausted) {
					panic(err)
				}
				exhausted.Store(true)
				stop.Store(true)
				return true
			}
			r := rand.New(rand.NewSource(int64(w)*7919 + 1))
			if width == 0 {
				// Per-op baseline: every item its own guardless call.
				for !stop.Load() {
					key := uint64(r.Int63n(int64(opt.KeyRange)))
					if r.Intn(2) == 0 {
						if done(m.TryPut(key, key)) {
							return
						}
					} else {
						m.Delete(key)
					}
					ops++
					if ops&63 == 0 && time.Since(start) > opt.Duration {
						stop.Store(true)
					}
				}
				return
			}
			// Batched: same aggregate 50/50 mix, alternating a put burst
			// with a delete burst of the same width. The clock check is
			// gated to every ~64 items like the per-op loop, so narrow
			// widths aren't taxed with a time.Since per burst.
			bkeys := make([]uint64, width)
			bvals := make([]uint64, width)
			insert := r.Intn(2) == 0
			next := uint64(64)
			for !stop.Load() {
				for i := range bkeys {
					bkeys[i] = uint64(r.Int63n(int64(opt.KeyRange)))
					bvals[i] = bkeys[i]
				}
				if insert {
					if _, err := m.TryMultiPut(bkeys, bvals); done(err) {
						return
					}
				} else {
					m.MultiDelete(bkeys)
				}
				insert = !insert
				ops += uint64(width)
				if ops >= next {
					next = ops + 64
					if time.Since(start) > opt.Duration {
						stop.Store(true)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	d.FlushGuardCache()

	var totalOps uint64
	for _, n := range opsByW {
		totalOps += n
	}
	tel := d.Telemetry()
	hitRate := 0.0
	if n := tel.BatchGuardCacheHits + tel.BatchGuardCacheMisses; n > 0 {
		hitRate = float64(tel.BatchGuardCacheHits) / float64(n)
	}
	return BatchResult{
		Scheme:            kind.String(),
		Goroutines:        goroutines,
		BatchSize:         width,
		Mops:              float64(totalOps) / elapsed.Seconds() / 1e6,
		Ops:               totalOps,
		BatchLeaseHitRate: hitRate,
		Exhausted:         exhausted.Load(),
	}
}
