package wfe_test

// The chaos robustness matrix: the paper's Table 1 distinction, asserted
// from recorded trajectories instead of argued from construction. Every
// canned hostile schedule runs over every scheme; the bounded schemes
// must respect their scenario ceilings, the exempt schemes (Leak always,
// EBR under a stalled reader) must visibly blow past them, and the
// advisor shown the incumbent EBR trajectory must recommend the
// known-correct escalation.

import (
	"testing"

	"wfe"
	"wfe/advisor"
	"wfe/internal/chaos"
)

// TestChaosRobustnessMatrix runs the full canned matrix through the
// shared verdict, chaos.Canned.Check. Every scenario is deterministic, so
// the ceilings are exact regression pins, not statistical hopes.
func TestChaosRobustnessMatrix(t *testing.T) {
	for _, c := range chaos.Catalog() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if testing.Short() && c.Name != "stalled-reader" {
				t.Skip("short mode runs only the scenario the schemes disagree on")
			}
			for _, kind := range wfe.AllSchemes() {
				tr, err := chaos.Run(kind, c.Scenario)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				for _, v := range c.Check(kind, tr) {
					t.Errorf("%s: %s", kind, v)
				}
			}
		})
	}
}

// TestChaosMonitorMatchesOfflineAdvise judges every prefix of each
// pinned scenario's EBR trajectory with Advise — the verdict a live
// Sampler whose window holds the whole run reports after that tick — and
// asserts the streamed verdicts end on the pinned escalation without
// flapping on the way: live monitoring must reproduce the batch decision,
// not approximate it.
func TestChaosMonitorMatchesOfflineAdvise(t *testing.T) {
	for _, c := range chaos.Catalog() {
		c := c
		if c.WantAdvice == "" {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			tr, err := chaos.Run(wfe.EBR, c.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			samples := tr.Samples()
			var rec advisor.Recommendation
			changes := 0
			for i := range samples {
				prev := rec.Scheme
				if rec = advisor.Advise(samples[:i+1]); rec.Scheme != prev {
					changes++
				}
			}
			if rec.Scheme != c.WantAdvice {
				t.Errorf("advice over the whole trajectory is %q, want pinned %q (profile %+v)",
					rec.Scheme, c.WantAdvice, rec.Profile)
			}
			if changes > len(samples)/2 {
				t.Errorf("streamed advice flapped: %d changes over %d ticks", changes, len(samples))
			}
		})
	}
}

// TestChaosStalledReaderDrains asserts the recovery half of the EBR
// story: the backlog that accumulated behind the stalled reservation
// drains within the trajectory once the stall lifts — unbounded growth
// under a stall is a liveness property of the stall, not a leak.
func TestChaosStalledReaderDrains(t *testing.T) {
	c := chaos.StalledReader()
	tr, err := chaos.Run(wfe.EBR, c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Ticks[len(tr.Ticks)-1]
	if stallEnd := c.Stalls[0].To; last.Tick < stallEnd+5 {
		t.Fatalf("scenario leaves no post-stall ticks to observe the drain (last tick %d, stall ends %d)",
			last.Tick, stallEnd)
	}
	if last.Unreclaimed >= tr.Summary.UnreclaimedMax/2 {
		t.Errorf("EBR backlog did not drain after the stall lifted: final tick %d vs highwater %d",
			last.Unreclaimed, tr.Summary.UnreclaimedMax)
	}
	if tr.Summary.UnreclaimedFinal > 256 {
		t.Errorf("settled backlog %d did not collapse", tr.Summary.UnreclaimedFinal)
	}
}

// TestChaosHPStrictlyTighter pins HP's qualitatively tighter bound: under
// the stalled reader it holds the backlog an order of magnitude below the
// era-class schemes, because it pins individual handles rather than
// everything live at the stall era.
func TestChaosHPStrictlyTighter(t *testing.T) {
	c := chaos.StalledReader()
	hp, err := chaos.Run(wfe.HP, c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	he, err := chaos.Run(wfe.HE, c.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if hp.Summary.UnreclaimedMax*2 > he.Summary.UnreclaimedMax {
		t.Errorf("HP highwater %d not clearly below HE's %d under the stalled reader",
			hp.Summary.UnreclaimedMax, he.Summary.UnreclaimedMax)
	}
}
