// Command wfelat measures per-operation latency distributions — the metric
// the paper's introduction motivates wait-freedom with ("latency-sensitive
// applications where execution time of all operations must be bounded").
//
// It runs the lock-free Michael–Scott queue against the two wait-free
// queues (Kogan–Petrank, CRTurn) under a chosen reclamation scheme —
// through the public Domain/Guard API, the same path applications take —
// and prints the latency percentiles of enqueue+dequeue pairs. The
// lock-free queue typically wins on median; the wait-free queues and WFE
// exist for the tail columns.
//
//	wfelat -scheme WFE -workers 8 -duration 3s
//	wfelat -scheme WFE -json > lat.json       # wfe-lat/v1 artifact
//	wfelat -metrics 127.0.0.1:9100            # live OpenMetrics while it runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
	"wfe/metrics"
)

// Schema identifies a wfelat JSON artifact.
const Schema = "wfe-lat/v1"

// Report is the top-level wfe-lat/v1 artifact: one Point per queue.
type Report struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Scheme    string  `json:"scheme"`
	Workers   int     `json:"workers"`
	Duration  string  `json:"duration"`
	Points    []Point `json:"points"`
}

// Point is one queue's measured latency distribution.
type Point struct {
	Queue    string  `json:"queue"`    // MS | KP | CRTurn
	Progress string  `json:"progress"` // lock-free | wait-free
	Scheme   string  `json:"scheme"`
	Workers  int     `json:"workers"`
	Pairs    int     `json:"pairs"`       // enqueue+dequeue pairs measured
	PairsSec float64 `json:"pairs_per_s"` // throughput
	P50NS    int64   `json:"p50_ns"`
	P90NS    int64   `json:"p90_ns"`
	P99NS    int64   `json:"p99_ns"`
	P999NS   int64   `json:"p999_ns"`
	P9999NS  int64   `json:"p9999_ns"`
	MaxNS    int64   `json:"max_ns"`
}

// pairQueue is the common surface of the three public queues under test:
// their Guarded methods, run on a pre-acquired guard so the measured pair
// excludes lease cost.
type pairQueue interface {
	TryEnqueueGuarded(g *wfe.Guard[uint64], v uint64) error
	DequeueGuarded(g *wfe.Guard[uint64]) (uint64, bool)
}

func main() {
	var (
		schemeName  = flag.String("scheme", "WFE", "reclamation scheme")
		workers     = flag.Int("workers", 8, "worker goroutines")
		duration    = flag.Duration("duration", 2*time.Second, "measurement time per queue")
		jsonOut     = flag.Bool("json", false, "emit a "+Schema+" JSON report on stdout instead of the table")
		metricsAddr = flag.String("metrics", "", "serve OpenMetrics/pprof on this address while measuring (e.g. 127.0.0.1:9100)")
	)
	flag.Parse()
	kind, err := wfe.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfelat:", err)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	if *metricsAddr != "" {
		addr, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfelat:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wfelat: serving metrics on http://%s/metrics\n", addr)
	}

	rep := Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Scheme:    kind.String(),
		Workers:   *workers,
		Duration:  duration.String(),
	}

	if !*jsonOut {
		fmt.Printf("%-10s %-9s %10s %10s %10s %10s %12s %12s\n",
			"queue", "progress", "p50", "p99", "p99.9", "p99.99", "max", "pairs/s")
	}
	for _, q := range []struct {
		name     string
		progress string
		build    func(d *wfe.Domain[uint64]) pairQueue
	}{
		{"MS", "lock-free", func(d *wfe.Domain[uint64]) pairQueue { return wfe.NewQueue[uint64](d) }},
		{"KP", "wait-free", func(d *wfe.Domain[uint64]) pairQueue { return wfe.NewWFQueue[uint64](d) }},
		{"CRTurn", "wait-free", func(d *wfe.Domain[uint64]) pairQueue { return wfe.NewTurnQueue[uint64](d) }},
	} {
		pt, err := measure(kind, q.name, q.progress, *workers, *duration, q.build, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfelat:", err)
			os.Exit(1)
		}
		rep.Points = append(rep.Points, pt)
		if !*jsonOut {
			fmt.Printf("%-10s %-9s %10s %10s %10s %10s %12s %12.0f\n",
				pt.Queue, pt.Progress,
				time.Duration(pt.P50NS), time.Duration(pt.P99NS),
				time.Duration(pt.P999NS), time.Duration(pt.P9999NS),
				time.Duration(pt.MaxNS), pt.PairsSec)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "wfelat:", err)
			os.Exit(1)
		}
	}
}

func measure(kind wfe.SchemeKind, name, progress string, workers int, duration time.Duration,
	build func(*wfe.Domain[uint64]) pairQueue, reg *metrics.Registry) (Point, error) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    kind,
		Capacity:  1 << 20,
		MaxGuards: workers,
	})
	if err != nil {
		return Point{}, err
	}
	reg.Register(name, d.Telemetry)
	defer reg.Unregister(name)
	q := build(d)

	// A small standing population so dequeues rarely hit empty.
	seedG := d.Guard()
	for i := uint64(0); i < 1024; i++ {
		if err := q.TryEnqueueGuarded(seedG, i); err != nil {
			seedG.Release()
			return Point{}, fmt.Errorf("%s: seed enqueue: %w", name, err)
		}
	}
	seedG.Release()

	var stop atomic.Bool
	var workerErr atomic.Pointer[error]
	perWorker := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := d.Guard()
			defer g.Release()
			lats := make([]time.Duration, 0, 1<<20)
			for !stop.Load() {
				t0 := time.Now()
				if err := q.TryEnqueueGuarded(g, uint64(id)); err != nil {
					workerErr.CompareAndSwap(nil, &err)
					stop.Store(true)
					break
				}
				q.DequeueGuarded(g)
				lats = append(lats, time.Since(t0))
				if len(lats)&255 == 0 && time.Since(start) > duration {
					stop.Store(true)
				}
			}
			perWorker[id] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := workerErr.Load(); err != nil {
		return Point{}, fmt.Errorf("%s: enqueue: %w", name, *err)
	}

	var all []time.Duration
	for _, l := range perWorker {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		return int64(all[int(float64(len(all)-1)*p/100)])
	}
	return Point{
		Queue:    name,
		Progress: progress,
		Scheme:   kind.String(),
		Workers:  workers,
		Pairs:    len(all),
		PairsSec: float64(len(all)) / elapsed.Seconds(),
		P50NS:    pct(50),
		P90NS:    pct(90),
		P99NS:    pct(99),
		P999NS:   pct(99.9),
		P9999NS:  pct(99.99),
		MaxNS:    int64(all[len(all)-1]),
	}, nil
}
