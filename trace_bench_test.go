// Tracing-overhead benchmarks and the CI guard asserting the acceptance
// bar: enabling event tracing costs at most 5% on the guardless HashMap
// workload versus a domain built without a tracer. The benchmarks run in
// any `go test -bench` sweep; the guard test is env-gated
// (WFE_OVERHEAD_GUARD=1) because it needs a quiet machine to be a fair
// judge, and CI runs it on a dedicated step.
package wfe_test

import (
	"os"
	"testing"

	"wfe"
)

// hashMapChurn is the workload the tracing and failpoint guards share: a
// 50% insert / 50% delete mix over 512 keys through the guardless HashMap
// API on a WFE domain built with opts. Every operation takes a lease,
// protects traversals, and allocates or retires a node, so each op
// crosses several tracer Emit sites and the arena-alloc and retirer-scan
// failpoint sites.
func hashMapChurn(b *testing.B, opts wfe.Options) {
	b.Helper()
	opts.Scheme = wfe.WFE
	opts.Capacity = 1 << 16
	d, err := wfe.NewDomain[uint64](opts)
	if err != nil {
		b.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 511
		if i&1 == 0 {
			m.Insert(k, uint64(i))
		} else {
			m.Delete(k)
		}
	}
}

// bestNsPerOp runs bench attempts times and returns the lowest ns/op.
// Timing ratios on shared runners are noisy, so every overhead guard
// compares best-of-attempts figures: a genuine hot-path regression slows
// every attempt; noise does not speed one up.
func bestNsPerOp(attempts int, bench func(*testing.B)) float64 {
	best := 0.0
	for i := 0; i < attempts; i++ {
		ns := float64(testing.Benchmark(bench).NsPerOp())
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func BenchmarkTracingOff(b *testing.B) { hashMapChurn(b, wfe.Options{}) }
func BenchmarkTracingOn(b *testing.B)  { hashMapChurn(b, wfe.Options{Trace: true}) }

// TestTracingOverheadGuard is the CI-asserted bar: tracing enabled must
// cost <= 5% versus disabled on the guardless HashMap benchmark, best of
// four attempts per side.
func TestTracingOverheadGuard(t *testing.T) {
	if os.Getenv("WFE_OVERHEAD_GUARD") != "1" {
		t.Skip("set WFE_OVERHEAD_GUARD=1 to run the tracing overhead guard")
	}
	const attempts = 4
	off := bestNsPerOp(attempts, BenchmarkTracingOff)
	on := bestNsPerOp(attempts, BenchmarkTracingOn)
	ratio := on / off
	t.Logf("tracing off %.1f ns/op, on %.1f ns/op, ratio %.3f", off, on, ratio)
	if ratio > 1.05 {
		t.Fatalf("tracing overhead %.1f%% exceeds the 5%% bar (off %.1f ns/op, on %.1f ns/op)",
			(ratio-1)*100, off, on)
	}
}
