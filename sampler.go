package wfe

import (
	"sync"
	"time"

	"wfe/advisor"
)

// SamplerConfig configures a Domain's background Sampler. The zero value
// is usable: a 10ms tick with a 600-tick history window.
type SamplerConfig struct {
	// Interval is the sampling tick (default 10ms, minimum 1ms).
	Interval time.Duration
	// History bounds the ring of retained Telemetry rows and the
	// advisor window (default 600 ticks — six seconds at the default
	// tick).
	History int
	// OnRecommendation, when non-nil, runs on the sampler goroutine
	// every time the live recommendation's signature changes (including
	// the first tick). Keep it fast; it blocks the next tick.
	OnRecommendation func(advisor.Recommendation)
	// AutoSwitch arms the sampler's hysteresis trigger: once the live
	// recommendation has named the same non-current scheme for
	// AutoSwitchAfter consecutive ticks, the sampler calls the Domain's
	// SwitchWithin (on the sampler goroutine) with a bounded drain wait,
	// so guards held across ticks abort the switch (retried on the next
	// streak) rather than gating the Domain indefinitely. See Switch for
	// the drain-and-swap semantics.
	AutoSwitch bool
	// AutoSwitchAfter is the hysteresis depth (default 3 when AutoSwitch
	// is set). A streak resets whenever the recommendation returns to the
	// current scheme or names a different candidate, so a flapping advisor
	// never triggers.
	AutoSwitchAfter int
}

// SamplerRates is the derived-rate view over the sampler's recent ticks:
// exponentially weighted moving averages of the per-second counter deltas
// plus the current backlog. An EWMA with alpha 0.2 weighs roughly the
// last ten ticks — fast enough to catch a regime change, smooth enough
// not to flap on one noisy tick.
type SamplerRates struct {
	Ticks         int           `json:"ticks"`           // samples collected so far
	Interval      time.Duration `json:"interval_ns"`     // configured tick
	AllocsPerSec  float64       `json:"allocs_per_sec"`  // block allocation rate
	FreesPerSec   float64       `json:"frees_per_sec"`   // block recycle rate
	RetiresPerSec float64       `json:"retires_per_sec"` // retire rate (frees + backlog slope)
	ScansPerSec   float64       `json:"scans_per_sec"`   // cleanup-scan rate
	BacklogSlope  float64       `json:"backlog_slope"`   // unreclaimed blocks/sec, signed
	ParksPerTick  float64       `json:"parks_per_tick"`  // guard parks per tick
	Backlog       int           `json:"backlog"`         // last sampled unreclaimed count

	// Batch-path rates (see batch.go): bursts and batched items per
	// second. ItemsPerSec/OpsPerSec approximates the mean batch width the
	// workload is actually running.
	BatchOpsPerSec   float64 `json:"batch_ops_per_sec"`
	BatchItemsPerSec float64 `json:"batch_items_per_sec"`
}

// ewmaAlpha is the smoothing factor of every sampler rate.
const ewmaAlpha = 0.2

// autoSwitchDrainBound caps how long a sampler-triggered switch waits for
// held guards to drain before aborting with ErrSwitchBusy. Guardless and
// pinned operations release in microseconds, so any drain this long means
// the program holds explicit guards across ticks — a pattern AutoSwitch
// must tolerate, not deadlock on.
const autoSwitchDrainBound = 50 * time.Millisecond

// A Sampler is the streaming half of the observability runtime: a
// background goroutine collecting Domain.Telemetry rows at a fixed tick
// into a bounded ring history, deriving per-second rates, and feeding an
// advisor.Monitor so the live scheme recommendation is always one method
// call away. Start one with Domain.StartSampler; stop it with Stop or
// Domain.Close (idempotent — so is starting, while one runs).
type Sampler struct {
	sample   func() Telemetry
	interval time.Duration
	history  int
	onRec    func(advisor.Recommendation)

	// Auto-switch wiring, installed by Domain.StartSampler before run.
	// switchTo asks the Domain to switch to the named scheme; current
	// reports the live scheme's legend name. Both nil when AutoSwitch is
	// off. streak/candidate are the hysteresis state: candidate is the
	// recommended non-current scheme being counted, streak how many
	// consecutive ticks have named it.
	switchTo  func(name string) error
	current   func() string
	autoAfter int
	candidate string
	streak    int

	mu sync.Mutex
	// hist is a true circular buffer: it grows by append until it reaches
	// the history bound, then head marks the oldest entry and each tick
	// overwrites in place — O(1) per tick where a slide would memmove the
	// whole window.
	hist   []Telemetry
	head   int
	n      int // total ticks collected
	rates  SamplerRates
	seeded bool // EWMAs hold a measured rate (not the zero value)
	mon    *advisor.Monitor
	rec    advisor.Recommendation
	hasRec bool

	prev     Telemetry
	prevTime time.Time

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newSampler(sample func() Telemetry, cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	if cfg.History <= 0 {
		cfg.History = 600
	}
	autoAfter := 0
	if cfg.AutoSwitch {
		autoAfter = cfg.AutoSwitchAfter
		if autoAfter <= 0 {
			autoAfter = 3
		}
	}
	return &Sampler{
		sample:    sample,
		interval:  cfg.Interval,
		history:   cfg.History,
		onRec:     cfg.OnRecommendation,
		autoAfter: autoAfter,
		mon:       advisor.NewMonitor(cfg.History),
		rates:     SamplerRates{Interval: cfg.Interval},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

func (s *Sampler) run() {
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				s.tick(time.Now())
			}
		}
	}()
}

// tick collects one sample at the given wall time and updates history,
// rates, the monitor and (when armed) the auto-switch trigger. The clock
// is a parameter so tests drive deterministic tick spacing.
func (s *Sampler) tick(now time.Time) {
	row := s.sample()

	s.mu.Lock()
	first := s.n == 0
	if len(s.hist) < s.history {
		s.hist = append(s.hist, row)
	} else {
		s.hist[s.head] = row
		if s.head++; s.head == len(s.hist) {
			s.head = 0
		}
	}
	tickIdx := s.n
	s.n++

	if !first {
		dt := now.Sub(s.prevTime).Seconds()
		if dt > 0 {
			p := s.prev
			// The first measured rate seeds each EWMA outright: blending
			// it against the zero initial value would report every rate a
			// factor of alpha low until enough ticks wash the zero out.
			blend := func(cur *float64, inst float64) {
				if !s.seeded {
					*cur = inst
					return
				}
				*cur = (1-ewmaAlpha)*(*cur) + ewmaAlpha*inst
			}
			blend(&s.rates.AllocsPerSec, float64(row.Allocs-p.Allocs)/dt)
			blend(&s.rates.FreesPerSec, float64(row.Frees-p.Frees)/dt)
			blend(&s.rates.ScansPerSec, float64(row.ScanScans-p.ScanScans)/dt)
			slope := float64(row.Unreclaimed-p.Unreclaimed) / dt
			blend(&s.rates.BacklogSlope, slope)
			// Retires = frees + backlog growth: every retired block either
			// got recycled or is still in the backlog.
			retires := float64(row.Frees-p.Frees) + float64(row.Unreclaimed-p.Unreclaimed)
			blend(&s.rates.RetiresPerSec, retires/dt)
			blend(&s.rates.ParksPerTick, float64(row.GuardParks-p.GuardParks))
			blend(&s.rates.BatchOpsPerSec, float64(row.BatchOps-p.BatchOps)/dt)
			blend(&s.rates.BatchItemsPerSec, float64(row.BatchedItems-p.BatchedItems)/dt)
			s.seeded = true
		}
	}
	s.rates.Ticks = s.n
	s.rates.Backlog = row.Unreclaimed
	s.prev, s.prevTime = row, now

	pressure := 0.0
	if row.Capacity > 0 {
		pressure = float64(row.InUse) / float64(row.Capacity)
	}
	rec, changed := s.mon.Push(advisor.Sample{
		Tick:           tickIdx,
		Unreclaimed:    row.Unreclaimed,
		ScanScans:      row.ScanScans,
		ScanBlocks:     row.ScanBlocks,
		P99Steps:       row.P99Steps,
		GuardParks:     row.GuardParks,
		Pressure:       pressure,
		EmergencyScans: row.EmergencyScans,
	})
	s.rec, s.hasRec = rec, true
	cb := s.onRec
	s.mu.Unlock()

	if changed && cb != nil {
		cb(rec)
	}
	s.maybeSwitch(rec)
}

// maybeSwitch advances the auto-switch hysteresis with this tick's
// recommendation and fires the Domain switch once a candidate has held
// for autoAfter consecutive ticks. Runs outside the sampler mutex — the
// switch gates guard acquisition and must not hold sampler state hostage
// while it drains. The hysteresis fields are sampler-goroutine-private.
func (s *Sampler) maybeSwitch(rec advisor.Recommendation) {
	if s.autoAfter == 0 || s.switchTo == nil || s.current == nil {
		return
	}
	want := rec.Scheme
	if want == "" || want == s.current() {
		s.candidate, s.streak = "", 0
		return
	}
	if want != s.candidate {
		s.candidate, s.streak = want, 1
	} else {
		s.streak++
	}
	if s.streak >= s.autoAfter {
		s.candidate, s.streak = "", 0
		// An error here is either an unknown scheme name (nothing the
		// sampler can do beyond not crashing) or ErrSwitchBusy — guards
		// held across ticks kept the bounded drain from completing. The
		// streak reset stops it retrying every tick either way; if the
		// recommendation persists, a fresh streak accrues and the switch
		// is retried once the guards come home.
		_ = s.switchTo(want)
	}
}

// Interval returns the configured sampling tick.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Ticks returns how many samples have been collected so far.
func (s *Sampler) Ticks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// History returns a copy of the retained samples, oldest first. The
// internal buffer is circular; the copy unrolls it, so callers never see
// the wrap point.
func (s *Sampler) History() []Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Telemetry, len(s.hist))
	n := copy(out, s.hist[s.head:])
	copy(out[n:], s.hist[:s.head])
	return out
}

// Rates returns the current derived-rate view.
func (s *Sampler) Rates() SamplerRates {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rates
}

// Recommendation returns the live advisor recommendation over the
// sampler's window, false before the first tick.
func (s *Sampler) Recommendation() (advisor.Recommendation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec, s.hasRec
}

// Running reports whether the sampling goroutine is still alive.
func (s *Sampler) Running() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// Stop halts the sampling goroutine and waits for it to exit. Idempotent
// and safe from any goroutine; the collected history, rates and
// recommendation remain readable after Stop.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
