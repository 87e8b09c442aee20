// Failpoint-overhead benchmarks and the CI guard asserting the acceptance
// bar: a disarmed failpoint site costs at most 5% on the guardless HashMap
// workload — the hot path pays one atomic pointer load per site and
// nothing more. The armed benchmark measures the evalSlow path with a
// trigger that never fires (AfterN far beyond reach), the worst case a
// production binary could see with injection compiled in but dormant.
// The benchmarks run in any `go test -bench` sweep; the guard test is
// env-gated (WFE_OVERHEAD_GUARD=1) because it needs a quiet machine to be
// a fair judge, and CI runs it on a dedicated step.
package wfe_test

import (
	"os"
	"testing"

	"wfe"
	"wfe/internal/failpoint"
)

// BenchmarkFailpointsDisarmed and BenchmarkFailpointsArmed run
// hashMapChurn, the tracing guard's mix: every insert crosses the
// arena-alloc site, every delete's reclamation crosses retirer-scan, so
// the per-site Eval cost is on the hot path throughout.
func BenchmarkFailpointsDisarmed(b *testing.B) { hashMapChurn(b, wfe.Options{}) }

func BenchmarkFailpointsArmed(b *testing.B) {
	site, ok := failpoint.Lookup("arena-alloc")
	if !ok {
		b.Fatal("arena-alloc site not registered")
	}
	// AfterN beyond any reachable hit count: the armed evaluation path
	// runs on every alloc but the trigger never fires.
	site.Arm(failpoint.Trigger{AfterN: 1 << 62})
	b.Cleanup(failpoint.DisarmAll)
	hashMapChurn(b, wfe.Options{})
}

// TestFailpointOverheadGuard is the CI-asserted bar: arming a
// never-firing trigger on the alloc site must not slow the workload past
// 1.05x the disarmed run — the sites stay cheap enough to ship. As with
// the tracing guard, each side takes the best of four attempts so a
// noisy neighbour cannot fail the build; only a real regression slows
// every attempt.
func TestFailpointOverheadGuard(t *testing.T) {
	if os.Getenv("WFE_OVERHEAD_GUARD") != "1" {
		t.Skip("set WFE_OVERHEAD_GUARD=1 to run the failpoint overhead guard")
	}
	const attempts = 4
	disarmed := bestNsPerOp(attempts, BenchmarkFailpointsDisarmed)
	armed := bestNsPerOp(attempts, BenchmarkFailpointsArmed)
	ratio := armed / disarmed
	t.Logf("failpoints disarmed %.1f ns/op, armed %.1f ns/op, ratio %.3f", disarmed, armed, ratio)
	if ratio > 1.05 {
		t.Fatalf("failpoint overhead %.1f%% exceeds the 5%% bar (disarmed %.1f ns/op, armed %.1f ns/op)",
			(ratio-1)*100, disarmed, armed)
	}
}
