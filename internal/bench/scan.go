package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

// The scan ablation (cmd/wfebench -ablation scan): the sorted-snapshot
// cleanup against the pre-overhaul linear reference, on the hash map in
// both paper mixes — read-mostly (figure 10) for the end-to-end
// throughput claim and write-heavy (figure 7) for dense cleanup traffic.
// It runs at ≥16 threads, where the gathered reservation set
// G = threads×MaxHEs makes the O(R×G) linear sweep visibly more
// expensive than the O((R+G)·log G) sorted scan.

// ScanResult is one measured point of the scan ablation.
type ScanResult struct {
	Figure   string `json:"figure"`
	DS       string `json:"ds"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Mode     string `json:"mode"` // "linear" or "sorted"
	// AdaptiveLinear marks a sorted-mode row whose gathered reservation
	// set sat below the runtime's sort cutoff, so cleanup adaptively ran
	// the linear sweep anyway: the pair compares nothing and reads ~1.0x.
	AdaptiveLinear bool    `json:"adaptive_linear,omitempty"`
	Threads        int     `json:"threads"`
	Mops           float64 `json:"mops"`
	Scans          uint64  `json:"scan_scans"`
	ScanBlocks     uint64  `json:"scan_blocks"`
	NsPerBlock     float64 `json:"scan_ns_per_block"`
	Unreclaimed    float64 `json:"unreclaimed_mean"`
}

// scanSchemes are the four schemes whose cleanup the overhaul rewired;
// HP already ran Michael's sorted scan and EBR/Leak have no reservation
// scan to ablate.
var scanSchemes = []string{"WFE", "HE", "2GEIBR", "WFE-IBR"}

// ScanSummary pairs each figure/scheme/threads point's two modes and
// renders one comparison line: cleanup cost per retired block and
// end-to-end throughput, linear → sorted.
func ScanSummary(results []ScanResult) []string {
	type key struct {
		figure, scheme string
		threads        int
	}
	linear := map[key]ScanResult{}
	var lines []string
	for _, r := range results {
		k := key{r.Figure, r.Scheme, r.Threads}
		if r.Mode == "linear" {
			linear[k] = r
			continue
		}
		lin, ok := linear[k]
		if !ok {
			continue
		}
		speedup := 0.0
		if r.NsPerBlock > 0 {
			speedup = lin.NsPerBlock / r.NsPerBlock
		}
		delta := 0.0
		if lin.Mops > 0 {
			delta = (r.Mops/lin.Mops - 1) * 100
		}
		note := ""
		if r.AdaptiveLinear {
			note = "  [G<cutoff: sorted arm ran the adaptive linear path]"
		}
		lines = append(lines, fmt.Sprintf(
			"fig %s %-8s %2dt: cleanup %7.1f → %6.1f ns/block (%4.1fx), %7.3f → %7.3f Mops/s (%+.1f%%)%s",
			r.Figure, r.Scheme, r.Threads, lin.NsPerBlock, r.NsPerBlock, speedup, lin.Mops, r.Mops, delta, note))
	}
	return lines
}

// scanCutoff is the SortCutoff of one ablation arm: math.MaxInt keeps
// every scan on the linear reference sweep, 0 the shipped default
// (reclaim.DefaultSortCutoff).
func scanCutoff(linear bool) int {
	if linear {
		return math.MaxInt
	}
	return 0
}

// microScan times the real cleanup path under a controlled reservation
// population, where end-to-end runs cannot: it publishes a full
// reservation matrix (G = threads×MaxHEs eras for the era schemes,
// threads intervals for the interval schemes — the density a machine
// with `threads` hardware contexts sustains mid-operation), then drives
// a single churner through TryAlloc/Retire so every CleanupFreq-th retire
// runs a real scan over the accumulated backlog. Deterministic and
// single-threaded, so the linear/sorted comparison is clean even on a
// small CI host.
func microScan(scheme string, threads, rounds int, linear bool) ScanResult {
	const maxHEs = 8
	a := mem.New(mem.Config{Capacity: 1 << 16, MaxThreads: threads + 1})
	smr, err := schemes.New(scheme, a, reclaim.Config{
		MaxThreads: threads + 1,
		MaxHEs:     maxHEs,
		// The clock advances once per CleanupFreq-sized churn window for
		// every scheme, so each scan examines the realistic mix: a bounded
		// protected backlog plus a majority of freeable blocks (the case
		// where the linear sweep cannot early-exit and must visit all G
		// reservations per block).
		EraFreq:     64,
		CleanupFreq: 64,
		MaxAttempts: 16,
		SortCutoff:  scanCutoff(linear),
	})
	if err != nil {
		panic(err)
	}
	churner := threads // tids 0..threads-1 hold the reservations
	var root atomic.Uint64
	root.Store(reclaim.MustAlloc(smr, churner))

	// Warm up past the count-0 era advances of TryAlloc and Retire so the
	// reservations published next sit at the era the churn blocks are
	// stamped with, keeping a backlog protected across the measured scans.
	for i := 0; i < 65; i++ {
		smr.Retire(churner, reclaim.MustAlloc(smr, churner))
	}
	for t := 0; t < threads; t++ {
		smr.Begin(t)
		for j := 0; j < maxHEs; j++ {
			smr.GetProtected(t, &root, j, 0)
		}
	}
	base := smr.Retirer().Stats()

	start := time.Now()
	for i := 0; i < rounds; i++ {
		smr.Retire(churner, reclaim.MustAlloc(smr, churner))
	}
	elapsed := time.Since(start)

	st := smr.Retirer().Stats()
	scans := st.Scans - base.Scans
	blocks := st.Blocks - base.Blocks
	nanos := st.Nanos - base.Nanos
	// An interval scheme gathers one reservation per thread, an era scheme
	// maxHEs per thread; below the runtime's sort cutoff the sorted mode
	// runs the adaptive linear path, which AdaptiveLinear flags honestly
	// instead of pretending the pair compares anything.
	gathered := threads
	if scheme == "WFE" || scheme == "HE" {
		gathered = threads * maxHEs
	}
	mode := "sorted"
	if linear {
		mode = "linear"
	}
	r := ScanResult{
		Figure:         "micro",
		DS:             "alloc/retire",
		Workload:       "churn",
		Scheme:         smr.Name(),
		Mode:           mode,
		AdaptiveLinear: !linear && gathered < smr.Retirer().Cutoff(),
		Threads:        threads,
		Mops:           float64(rounds) / elapsed.Seconds() / 1e6,
		Scans:          scans,
		ScanBlocks:     blocks,
		Unreclaimed:    float64(smr.Unreclaimed()),
	}
	if blocks > 0 {
		r.NsPerBlock = float64(nanos) / float64(blocks)
	}
	return r
}

// AblationScan runs the controlled cleanup microbenchmark at 16 and 64
// reservation-holding threads, then sweeps both cleanup implementations
// end to end. End-to-end thread counts honour opt.Threads when set;
// otherwise one point at max(16, GOMAXPROCS) — the acceptance regime of
// the overhaul.
func AblationScan(opt Options) []ScanResult {
	if len(opt.Threads) == 0 {
		threads := fixedThreads()
		if threads < 16 {
			threads = 16
		}
		opt.Threads = []int{threads}
	}
	opt = opt.Defaults()
	var out []ScanResult
	for _, threads := range []int{16, 64} {
		rounds := 96000 / threads
		for _, scheme := range scanSchemes {
			for _, linear := range []bool{true, false} {
				out = append(out, microScan(scheme, threads, rounds, linear))
			}
		}
	}
	for _, figure := range []string{"10", "7"} {
		exp, _ := FindExperiment(figure)
		for _, scheme := range scanSchemes {
			e := exp
			e.Schemes = []string{scheme}
			for _, mode := range []string{"linear", "sorted"} {
				for _, r := range sweep(e, opt, scanCutoff(mode == "linear")) {
					out = append(out, ScanResult{
						Figure:      r.Figure,
						DS:          r.DS,
						Workload:    r.Workload,
						Scheme:      r.Scheme,
						Mode:        mode,
						Threads:     r.Threads,
						Mops:        r.Mops,
						Scans:       r.ScanScans,
						ScanBlocks:  r.ScanBlocks,
						NsPerBlock:  r.ScanNsPerBlock(),
						Unreclaimed: r.Unreclaimed,
					})
				}
			}
		}
	}
	return out
}
