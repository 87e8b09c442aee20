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
	// History bounds the ring of retained Telemetry rows, which is also
	// the advisor's window (default 600 ticks — six seconds at the
	// default tick).
	History int
	// OnRecommendation, when non-nil, runs on the sampler goroutine
	// every time the live recommendation's scheme changes (including the
	// first tick). Keep it fast; it blocks the next tick.
	OnRecommendation func(advisor.Recommendation)
	// AutoSwitch arms the sampler's hysteresis trigger: once the live
	// recommendation has named the same non-current scheme for three
	// consecutive ticks, the sampler calls the Domain's SwitchWithin (on
	// the sampler goroutine) with a bounded drain wait, so guards held
	// across ticks abort the switch (retried on the next streak) rather
	// than gating the Domain indefinitely. A streak resets whenever the
	// recommendation returns to the current scheme or names a different
	// candidate, so a flapping advisor never triggers. See Switch for the
	// drain-and-swap semantics.
	AutoSwitch bool
}

// autoSwitchAfter is AutoSwitch's hysteresis depth: the consecutive
// identical non-current verdicts that fire a switch.
const autoSwitchAfter = 3

// autoSwitchDrainBound caps how long a sampler-triggered switch waits for
// held guards to drain before aborting with ErrSwitchBusy. Guardless and
// pinned operations release in microseconds, so any drain this long means
// the program holds explicit guards across ticks — a pattern AutoSwitch
// must tolerate, not deadlock on.
const autoSwitchDrainBound = 50 * time.Millisecond

// A Sampler is the streaming half of the observability runtime: a
// background goroutine collecting Domain.Telemetry rows at a fixed tick
// into a bounded ring and judging that window with advisor.Advise after
// every tick, so the live scheme recommendation is always one method call
// away. It keeps no rates: a rate is the difference of two History rows
// over the ticks between them, and the metrics export leaves rates to the
// scraper. Start one with Domain.StartSampler; stop it with Stop or
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
	candidate string
	streak    int

	mu sync.Mutex
	// The window is one ring of ticks with one head, kept as two columns:
	// rows[i] is a tick's Telemetry row and advs[i] the advisor.Sample
	// read from it, so a tick converts only the row it adds. The ring
	// grows by append until it holds history ticks, then head marks the
	// oldest slot and each tick overwrites it in place.
	rows   []Telemetry
	advs   []advisor.Sample
	head   int
	n      int              // total ticks collected
	window []advisor.Sample // advs oldest first, rebuilt each tick for Advise
	rec    advisor.Recommendation
	hasRec bool

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
	return &Sampler{
		sample:   sample,
		interval: cfg.Interval,
		history:  cfg.History,
		onRec:    cfg.OnRecommendation,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
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
				s.tick()
			}
		}
	}()
}

// tick collects one row into the ring, re-judges the window and (when
// armed) advances the auto-switch trigger. The recommendation counts as
// changed on the first tick and whenever its scheme differs from the last
// tick's: reason strings and profile numbers embed per-tick measurements,
// and a change signal that fires every tick is no signal.
func (s *Sampler) tick() {
	row := s.sample()
	pressure := 0.0
	if row.Capacity > 0 {
		pressure = float64(row.InUse) / float64(row.Capacity)
	}

	s.mu.Lock()
	adv := advisor.Sample{
		Tick:           s.n,
		Unreclaimed:    row.Unreclaimed,
		ScanScans:      row.ScanScans,
		ScanBlocks:     row.ScanBlocks,
		P99Steps:       row.P99Steps,
		GuardParks:     row.GuardParks,
		Pressure:       pressure,
		EmergencyScans: row.EmergencyScans,
	}
	if len(s.rows) < s.history {
		s.rows, s.advs = append(s.rows, row), append(s.advs, adv)
	} else {
		s.rows[s.head], s.advs[s.head] = row, adv
		if s.head++; s.head == len(s.rows) {
			s.head = 0
		}
	}
	s.n++
	// Advise's streak and spike features depend on sample adjacency, so
	// it must see the window in tick order, not in ring order.
	s.window = append(append(s.window[:0], s.advs[s.head:]...), s.advs[:s.head]...)
	rec := advisor.Advise(s.window)
	changed := !s.hasRec || rec.Scheme != s.rec.Scheme
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
// for autoSwitchAfter consecutive ticks. Runs outside the sampler mutex —
// the switch gates guard acquisition and must not hold sampler state
// hostage while it drains. The hysteresis fields are
// sampler-goroutine-private.
func (s *Sampler) maybeSwitch(rec advisor.Recommendation) {
	if s.switchTo == nil || s.current == nil {
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
	if s.streak >= autoSwitchAfter {
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

// History returns a copy of the retained rows, oldest first. The ring
// is circular; the copy unrolls it, so callers never see the wrap point.
func (s *Sampler) History() []Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Telemetry, 0, len(s.rows))
	return append(append(out, s.rows[s.head:]...), s.rows[:s.head]...)
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
// and safe from any goroutine; the collected history and recommendation
// remain readable after Stop.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
