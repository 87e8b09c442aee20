// Package quiesce settles a quiescent Domain so its reclamation census is
// meaningful: retired blocks sit in per-tid retire lists that are only
// scanned when that tid retires again, so "drained" structures can still
// show a large Unreclaimed backlog until every tid runs one more cleanup
// scan. The conformance, stress, switch and chaos tests share this recipe
// rather than each hand-rolling it.
package quiesce

import (
	"fmt"

	"wfe"
)

// settleOps is how many retire-triggering operations each tid runs: enough
// push/pop pairs to cross the cleanup-scan threshold (CleanupFreq, ≤ 30
// everywhere in this repository) and, for the epoch- and interval-based
// schemes, to advance the era clock past the retired blocks' lifespans.
const settleOps = 64

// Settle flushes every tid's retire list on an otherwise-quiescent Domain:
// it claims every guard, runs a little scratch churn on each so the next
// cleanup scan fires with no protection outstanding, and releases them.
// The scratch stack lives on the same Domain and ends empty. Call it with
// no concurrent operations in flight, before asserting on Unreclaimed.
func Settle[T any](d *wfe.Domain[T]) {
	scratch := wfe.NewStack[T](d)
	var zero T
	d.FlushGuardCache()
	var gs []*wfe.Guard[T]
	for {
		g, ok := d.TryGuard()
		if !ok {
			break
		}
		gs = append(gs, g)
	}
	for _, g := range gs {
		for i := 0; i < settleOps; i++ {
			// Exhaustion-tolerant: on an arena the workload filled (the
			// leak baseline after an undersized run) there is nothing the
			// churn could settle anyway.
			if err := scratch.TryPushGuarded(g, zero); err != nil {
				break
			}
			scratch.PopGuarded(g)
		}
	}
	for _, g := range gs {
		g.Release()
	}
	// The churn above only drives the cadence-triggered scans; a Domain
	// running a lazy CleanupFreq would keep its residue until each tid
	// retires CleanupFreq more blocks. The quiescent scavenge pass scans
	// every ring unconditionally.
	d.Scavenge()
}

// backlogFloor and backlogPerTid bound the retired-block backlog tolerated
// after a drain + Settle. Each tid's retire list keeps a last-window
// residue no later scan revisits (blocks retired within the final
// CleanupFreq/EraFreq window — roughly a dozen per tid at the harnesses'
// aggressive settings), so the tolerance scales with MaxGuards above a
// small-domain floor; anything beyond it means some tid's retire list
// never got its settling scan.
const (
	backlogFloor  = 256
	backlogPerTid = 16
)

// Check asserts the quiescent census after Settle: the lease cache must
// flush clean, every guard tid must be back on the freelist, the arena's
// freelist census must account for every block (segment transfers can
// neither lose nor duplicate slots), and — when assertBacklog is set
// (every scheme but the leak baseline) — the retired backlog must have
// collapsed to the per-tid baseline. It returns the first violation as an
// error so every harness shares one recipe.
func Check[T any](d *wfe.Domain[T], assertBacklog bool) error {
	if stranded := d.FlushGuardCache(); stranded != 0 {
		return fmt.Errorf("quiesce: %d guards stranded in the lease cache after flush", stranded)
	}
	tel := d.Telemetry()
	if tel.GuardsFree != tel.MaxGuards {
		return fmt.Errorf("quiesce: guard leak: %d/%d tids back on the freelist", tel.GuardsFree, tel.MaxGuards)
	}
	if c := d.ArenaCensus(); c.Cached+c.Global+c.Live+c.BumpFree != c.Capacity {
		return fmt.Errorf("quiesce: arena census leak: %d cached + %d global + %d live + %d bump-free != capacity %d",
			c.Cached, c.Global, c.Live, c.BumpFree, c.Capacity)
	}
	if !assertBacklog {
		return nil
	}
	baseline := backlogFloor
	if scaled := backlogPerTid * tel.MaxGuards; scaled > baseline {
		baseline = scaled
	}
	if backlog := d.Unreclaimed(); backlog > baseline {
		return fmt.Errorf("quiesce: retired backlog %d did not collapse after drain+settle (baseline %d for %d guards)",
			backlog, baseline, tel.MaxGuards)
	}
	return nil
}
