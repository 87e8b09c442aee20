// The batch ablation and the CI guard asserting the acceptance bar: at
// batch width 32 the TryMultiPut/MultiDelete path must reach at least
// 1.3x the per-op guardless throughput on the hash-map churn mix for the
// era schemes, while width 1 — the batch machinery with nothing to
// amortize — must stay within 1.1x of per-op cost. The benchmark runs in
// any `go test -bench` sweep; the guard test is env-gated
// (WFE_OVERHEAD_GUARD=1) because it needs a quiet machine to be a fair
// judge, and CI runs it on a dedicated step.
package wfe_test

import (
	"fmt"
	"os"
	"testing"

	"wfe"
)

// batchChurn drives the 50% put / 50% delete mix over 512 keys through
// the guardless HashMap API: per operation at width 0, or as
// TryMultiPut/MultiDelete bursts of the given width. b.N counts items
// either way, so ns/op compares directly across widths.
func batchChurn(b *testing.B, kind wfe.SchemeKind, width int) {
	b.Helper()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:   kind,
		Capacity: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 64)
	const mask = 511
	if width == 0 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) & mask
			if i&1 == 0 {
				if err := m.TryPut(k, uint64(i)); err != nil {
					b.Fatal(err)
				}
			} else {
				m.Delete(k)
			}
		}
		return
	}
	keys := make([]uint64, width)
	vals := make([]uint64, width)
	insert := true
	b.ResetTimer()
	for i := 0; i < b.N; i += width {
		for j := range keys {
			keys[j] = uint64(i+j) & mask
			vals[j] = uint64(i + j)
		}
		if insert {
			if _, err := m.TryMultiPut(keys, vals); err != nil {
				b.Fatal(err)
			}
		} else {
			m.MultiDelete(keys)
		}
		insert = !insert
	}
}

// BenchmarkBatch runs batchChurn per operation and at each batch width
// under every scheme that recycles blocks (the Leak baseline would fill
// the arena). Width 1 measures the batch path's fixed overhead, the wider
// rows its amortization: one lease, one protection span and one retire
// submission per burst.
func BenchmarkBatch(b *testing.B) {
	for _, kind := range wfe.AllSchemes() {
		if kind == wfe.Leak {
			continue
		}
		for _, width := range []int{0, 1, 8, 32, 128} {
			name := "per-op"
			if width > 0 {
				name = fmt.Sprintf("width=%d", width)
			}
			b.Run(fmt.Sprint(kind, "/", name), func(b *testing.B) { batchChurn(b, kind, width) })
		}
	}
}

// TestBatchSpeedupGuard is the CI-asserted bar for the batch APIs, per
// era scheme (WFE and HE): width 32 at >= 1.3x per-op throughput, width
// 1 within 1.1x of per-op cost, each side the best (lowest ns/item) of
// four attempts (see bestNsPerOp).
func TestBatchSpeedupGuard(t *testing.T) {
	if os.Getenv("WFE_OVERHEAD_GUARD") != "1" {
		t.Skip("set WFE_OVERHEAD_GUARD=1 to run the batch speedup guard")
	}
	const attempts = 4
	best := func(kind wfe.SchemeKind, width int) float64 {
		return bestNsPerOp(attempts, func(b *testing.B) { batchChurn(b, kind, width) })
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.HE} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			perOp := best(kind, 0)
			b1 := best(kind, 1)
			b32 := best(kind, 32)
			speedup := perOp / b32
			overhead := b1 / perOp
			t.Logf("%s: per-op %.1f ns/item, batch1 %.1f ns/item (%.3fx), batch32 %.1f ns/item (%.2fx speedup)",
				kind, perOp, b1, overhead, b32, speedup)
			if speedup < 1.3 {
				t.Errorf("%s: batch=32 speedup %.2fx below the 1.3x bar (per-op %.1f ns/item, batch32 %.1f ns/item)",
					kind, speedup, perOp, b32)
			}
			if overhead > 1.1 {
				t.Errorf("%s: batch=1 costs %.2fx per-op, above the 1.1x bar (per-op %.1f ns/item, batch1 %.1f ns/item)",
					kind, overhead, perOp, b1)
			}
		})
	}
}
