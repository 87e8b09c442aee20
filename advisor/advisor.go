// Package advisor is the telemetry-driven scheme advisor: a pure decision
// kernel that reads a recorded telemetry trajectory and recommends the
// reclamation scheme whose robustness/throughput trade-off fits the
// observed schedule. It is the first half of the roadmap's adaptive
// runtime — the detector that live scheme switching would consume; today
// its recommendation is applied by configuring the next Domain.
//
// The paper's Table 1 frames the choice this kernel automates: EBR has the
// cheapest reads but one stalled reader stops all reclamation; HP/HE-class
// schemes bound memory under any schedule at some read cost; WFE keeps the
// era-class read cost and makes every reclamation operation wait-free. The
// advisor reads the schedule's hostility off the trajectory — sustained
// backlog growth while cleanup scans run is a stalled reader, repeated
// transient spikes are intermittent stalls, guard parks are
// oversubscription — and escalates accordingly:
//
//   - a cooperative schedule (no stall signature, no park pressure) keeps
//     EBR's speed;
//   - intermittent hostility (bursty stall spikes, oversubscription churn
//     that preempts operations mid-flight) moves to HE: bounded memory,
//     era-class reads;
//   - a sustained stall signature moves to WFE: bounded memory and a
//     wait-free bound on every reclamation step, so the stalled schedule
//     cannot starve reclamation however long it lasts.
//
// The kernel is pure — plain data in, a Recommendation out, no clocks, no
// goroutines — so it is equally usable on a live Domain's Telemetry rows,
// on an internal/chaos trajectory, or on a deserialized wfe-chaos/v1
// artifact (cmd/wfemon replays one).
package advisor

import (
	"fmt"
	"sort"
)

// A Sample is one tick of a recorded trajectory: the Domain's cumulative
// telemetry counters at that tick (the matching fields of a
// wfe.Domain.Telemetry row or of a wfe-chaos/v1 tick). Cumulative fields must be monotone
// across the slice; the kernel works on their deltas.
type Sample struct {
	Tick        int    `json:"tick"`
	Unreclaimed int    `json:"unreclaimed"` // retired-but-not-recycled backlog at this tick
	ScanScans   uint64 `json:"scan_scans"`  // cumulative cleanup scans
	ScanBlocks  uint64 `json:"scan_blocks"` // cumulative retired blocks examined by scans
	P99Steps    uint64 `json:"p99_steps"`   // p99 GetProtected step count so far
	GuardParks  uint64 `json:"guard_parks"` // cumulative parked guard acquisitions

	// Backpressure columns (zero on trajectories recorded before the
	// emergency-reclamation pipeline existed, which disables the
	// exhaustion-pressure signature on them).
	Pressure       float64 `json:"pressure,omitempty"`        // InUse/Capacity arena occupancy fraction
	EmergencyScans uint64  `json:"emergency_scans,omitempty"` // cumulative out-of-cadence scans forced by alloc stalls
}

// Decision thresholds. They are exported constants rather than knobs: the
// canned chaos scenarios pin the classifier's behaviour in tests, and a
// deployment that disagrees with a threshold should record a longer
// trajectory, not tune the classifier until it agrees.
const (
	// StallStreakTicks is the sustained-growth length that reads as a
	// stalled reader: this many consecutive ticks of strictly growing
	// backlog, with cleanup scans running throughout (scans that run but
	// free nothing mean reclamation is blocked, not merely lazy).
	StallStreakTicks = 8
	// StallMinGrowth is the net backlog growth (in blocks) the streak must
	// accumulate before it counts — a floor against classifying slow drift
	// on a tiny workload as a stall.
	StallMinGrowth = 256
	// SpikeEpisodes is how many distinct transient backlog excursions read
	// as intermittent stalling (bursty preemption) rather than noise.
	SpikeEpisodes = 3
	// SpikeFactor scales the median backlog into the excursion threshold:
	// a tick above SpikeFactor×median (with a SpikeFloor absolute floor)
	// is inside a spike; the spike ends when the backlog returns below.
	SpikeFactor = 3
	// SpikeFloor is the absolute excursion floor in blocks, so a
	// near-idle trajectory's wobble never reads as spikes.
	SpikeFloor = 192
	// ParkPressure is the parks-per-tick rate that reads as guard
	// oversubscription: goroutines outnumbering guards enough to park
	// regularly will also be preempted mid-operation regularly, which is
	// exactly the schedule EBR's epoch cannot tolerate.
	ParkPressure = 0.5
	// PressureThreshold is the arena-occupancy fraction above which a
	// tick counts toward the exhaustion-pressure signature: the workload
	// is living at the edge of the arena and every retired block the
	// scheme withholds is a future allocation stall.
	PressureThreshold = 0.9
	// PressureStreakTicks is how many consecutive above-threshold ticks
	// (with emergency scans actually firing) read as sustained exhaustion
	// pressure rather than a transient spike the pipeline absorbed.
	PressureStreakTicks = 4
)

// A Profile is the feature vector Analyze computes from a trajectory —
// the evidence a Recommendation cites.
type Profile struct {
	Ticks          int     `json:"ticks"`
	Highwater      int     `json:"highwater"`       // max backlog over the trajectory
	HighwaterTick  int     `json:"highwater_tick"`  // tick index of the max
	Final          int     `json:"final"`           // backlog at the last tick
	Median         int     `json:"median"`          // median per-tick backlog
	GrowthStreak   int     `json:"growth_streak"`   // longest strictly-growing backlog run with scans active
	GrowthAmount   int     `json:"growth_amount"`   // net backlog added by that run
	Spikes         int     `json:"spikes"`          // transient excursions above the spike threshold
	ParksPerTick   float64 `json:"parks_per_tick"`  // guard-park rate across the trajectory
	P99Steps       uint64  `json:"p99_steps"`       // final p99 protect-loop step count
	ScansRan       uint64  `json:"scans_ran"`       // cleanup scans over the trajectory
	RetireActivity bool    `json:"retire_activity"` // any retire-side work at all
	PressureStreak int     `json:"pressure_streak"` // longest run of ticks above PressureThreshold occupancy
	PressurePeak   float64 `json:"pressure_peak"`   // max arena occupancy fraction over the trajectory
	EmergencyScans uint64  `json:"emergency_scans"` // out-of-cadence scans forced over the trajectory
}

// A Recommendation names the scheme (by its wfe legend name) the observed
// trajectory calls for, with the evidence that led there.
type Recommendation struct {
	Scheme  string   `json:"scheme"`
	Reasons []string `json:"reasons"`
	Profile Profile  `json:"profile"`
}

// Analyze computes the trajectory's feature profile: backlog order
// statistics, the longest scans-active growth streak, transient spike
// episodes and the guard-park rate. It is deterministic in the samples.
func Analyze(samples []Sample) Profile {
	p := Profile{Ticks: len(samples)}
	if len(samples) == 0 {
		return p
	}
	first, last := samples[0], samples[len(samples)-1]
	p.Final = last.Unreclaimed
	p.P99Steps = last.P99Steps
	p.ScansRan = last.ScanScans - first.ScanScans
	if n := len(samples); n > 1 {
		p.ParksPerTick = float64(last.GuardParks-first.GuardParks) / float64(n-1)
	}
	p.RetireActivity = last.ScanBlocks > first.ScanBlocks || p.Final > 0
	p.EmergencyScans = last.EmergencyScans - first.EmergencyScans

	// Longest run of consecutive ticks at or above the exhaustion
	// threshold: the workload living against the arena ceiling.
	streak := 0
	for _, s := range samples {
		if s.Pressure > p.PressurePeak {
			p.PressurePeak = s.Pressure
		}
		if s.Pressure >= PressureThreshold {
			streak++
			if streak > p.PressureStreak {
				p.PressureStreak = streak
			}
		} else {
			streak = 0
		}
	}

	backlogs := make([]int, len(samples))
	for i, s := range samples {
		backlogs[i] = s.Unreclaimed
		if s.Unreclaimed > p.Highwater {
			p.Highwater, p.HighwaterTick = s.Unreclaimed, s.Tick
		}
		if s.Unreclaimed > 0 {
			p.RetireActivity = true
		}
	}
	sorted := append([]int(nil), backlogs...)
	sort.Ints(sorted)
	p.Median = sorted[len(sorted)/2]

	// Longest strictly-growing backlog run during which cleanup scans
	// kept running: scans that run without shrinking the backlog are the
	// signature of blocked (not lazy) reclamation.
	streakStart := 0
	for i := 1; i < len(samples); i++ {
		if samples[i].Unreclaimed <= samples[i-1].Unreclaimed {
			streakStart = i
			continue
		}
		length := i - streakStart
		growth := samples[i].Unreclaimed - samples[streakStart].Unreclaimed
		scansActive := samples[i].ScanScans > samples[streakStart].ScanScans
		if scansActive && length > p.GrowthStreak {
			p.GrowthStreak, p.GrowthAmount = length, growth
		}
	}

	// Transient excursions: maximal runs above the spike threshold that
	// return below it (an excursion still open at the last tick counts —
	// the trajectory may simply end mid-spike).
	threshold := SpikeFactor * p.Median
	if threshold < SpikeFloor {
		threshold = SpikeFloor
	}
	inSpike := false
	for _, b := range backlogs {
		if b > threshold && !inSpike {
			p.Spikes++
			inSpike = true
		} else if b <= threshold {
			inSpike = false
		}
	}
	return p
}

// Advise analyzes the trajectory and recommends a scheme per the observed
// stall/backlog profile. The escalation ladder (cheapest scheme the
// schedule tolerates): EBR when readers never stall, HE under intermittent
// hostility, WFE under a sustained stall signature.
func Advise(samples []Sample) Recommendation {
	p := Analyze(samples)
	rec := Recommendation{Profile: p}
	switch {
	case p.PressureStreak >= PressureStreakTicks && p.EmergencyScans > 0:
		rec.Scheme = "HP"
		rec.Reasons = append(rec.Reasons,
			fmt.Sprintf("exhaustion pressure: arena occupancy held above %.0f%% for %d consecutive ticks (peak %.0f%%) while %d emergency scans fired — the workload lives against the arena ceiling and every withheld retired block is a future allocation stall",
				PressureThreshold*100, p.PressureStreak, p.PressurePeak*100, p.EmergencyScans),
			"HP keeps the tightest retire backlog of any scheme (per-block identity scans, no era granularity), returning retired blocks soonest when every block counts")
	case !p.RetireActivity:
		rec.Scheme = "EBR"
		rec.Reasons = append(rec.Reasons,
			"no retire activity recorded: reclamation never ran, any scheme is safe; EBR has the cheapest reads")
	case p.GrowthStreak >= StallStreakTicks && p.GrowthAmount >= StallMinGrowth:
		rec.Scheme = "WFE"
		rec.Reasons = append(rec.Reasons,
			fmt.Sprintf("stalled-reader signature: backlog grew for %d consecutive ticks (+%d blocks, highwater %d) while cleanup scans ran — reclamation is blocked by a reservation, and only a bounded scheme caps memory under it",
				p.GrowthStreak, p.GrowthAmount, p.Highwater),
			"WFE keeps era-class read cost and bounds every reclamation step, so however long the stall lasts neither memory nor any thread's progress is hostage to it")
	case p.Spikes >= SpikeEpisodes:
		rec.Scheme = "HE"
		rec.Reasons = append(rec.Reasons,
			fmt.Sprintf("intermittent stalls: %d transient backlog spikes above %d×median (median %d, highwater %d) that drained once each stall lifted",
				p.Spikes, SpikeFactor, p.Median, p.Highwater),
			"HE bounds the backlog during each spike at era-class read cost; the spikes drain, so wait-free helping is not needed")
	case p.ParksPerTick >= ParkPressure:
		rec.Scheme = "HE"
		rec.Reasons = append(rec.Reasons,
			fmt.Sprintf("guard oversubscription: %.1f parks/tick means goroutines regularly outnumber guards and get preempted mid-operation — the schedule EBR's epoch cannot tolerate",
				p.ParksPerTick),
			"HE bounds memory under arbitrary preemption at era-class read cost")
	default:
		rec.Scheme = "EBR"
		rec.Reasons = append(rec.Reasons,
			fmt.Sprintf("cooperative schedule: no sustained backlog growth (longest scans-active streak %d ticks), no spike episodes, %.1f parks/tick — readers never stall, so the epoch always advances",
				p.GrowthStreak, p.ParksPerTick))
	}
	return rec
}
