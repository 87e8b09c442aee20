// Package quiesce checks the census of a drained, quiescent Domain.
// Retired blocks sit in per-tid retire lists that are only scanned when
// that tid retires again, so callers first settle the Domain with
// Domain.Scavenge, which scans every ring out of cadence; Check then
// asserts the guards, the arena and the backlog. The conformance, stress,
// switch and chaos tests share this recipe rather than each hand-rolling
// it.
package quiesce

import (
	"fmt"

	"wfe"
)

// backlogFloor and backlogPerTid bound the retired-block backlog tolerated
// after a drain + Scavenge. Each tid's retire list keeps a last-window
// residue no later scan revisits (blocks retired within the final
// CleanupFreq/EraFreq window — roughly a dozen per tid at the harnesses'
// aggressive settings), so the tolerance scales with MaxGuards above a
// small-domain floor; anything beyond it means some tid's retire list
// never got its settling scan.
const (
	backlogFloor  = 256
	backlogPerTid = 16
)

// Check asserts the quiescent census after Scavenge: every guard tid
// must be free in the guard table, the arena's freelist census must
// account for every block (segment transfers can neither lose nor
// duplicate slots), and — when assertBacklog is set (every scheme but the
// leak baseline) — the retired backlog must have collapsed to the per-tid
// baseline. It returns the first violation as an error so every harness
// shares one recipe.
func Check[T any](d *wfe.Domain[T], assertBacklog bool) error {
	tel := d.Telemetry()
	if tel.GuardsFree != tel.MaxGuards {
		return fmt.Errorf("quiesce: guard leak: %d/%d tids free in the guard table", tel.GuardsFree, tel.MaxGuards)
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
		return fmt.Errorf("quiesce: retired backlog %d did not collapse after drain+scavenge (baseline %d for %d guards)",
			backlog, baseline, tel.MaxGuards)
	}
	return nil
}
