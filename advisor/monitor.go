package advisor

// A Monitor streams trajectory samples through the pure Advise kernel and
// reports when the recommendation changes — the live half of the advisor.
// Where Advise judges a complete recorded trajectory, a Monitor is fed one
// Sample per tick and re-derives the recommendation over its window after
// each push. wfe's background Sampler feeds it one Domain Telemetry row a
// tick; the change signal it returns fires SamplerConfig.OnRecommendation.
//
// A Monitor is not safe for concurrent use; callers that sample from one
// goroutine and read from another (the Sampler) serialize around it.
type Monitor struct {
	window int
	// samples grows by append until it reaches window, then becomes a
	// circular buffer: head marks the oldest entry and each push
	// overwrites in place instead of memmoving the whole window.
	samples []Sample
	head    int
	// scratch is the reusable oldest-first view handed to Advise once the
	// buffer has wrapped (the kernel's streak and spike features depend on
	// sample adjacency, so it must see the window in order).
	scratch []Sample
	rec     Recommendation
	has     bool
}

// NewMonitor creates a Monitor judging the most recent window samples.
// window <= 0 keeps the full stream (exact equivalence with offline
// Advise over the whole trajectory — what the chaos acceptance tests
// pin); a bounded window makes a long-lived Monitor react to the recent
// regime instead of the whole history.
func NewMonitor(window int) *Monitor {
	if window < 0 {
		window = 0
	}
	return &Monitor{window: window}
}

// Window returns the configured window (0 = unbounded).
func (m *Monitor) Window() int { return m.window }

// Len returns the number of samples currently held.
func (m *Monitor) Len() int { return len(m.samples) }

// Push appends one sample, re-runs Advise over the window, and reports
// the updated recommendation plus whether the recommended scheme changed
// — true on the first push and whenever Advise names a different scheme
// than the previous push. The scheme alone is the change signature:
// reason strings and profile numbers embed per-tick measurements and
// would fire on every sample, and a change signal that always fires is
// no signal.
func (m *Monitor) Push(s Sample) (Recommendation, bool) {
	var view []Sample
	if m.window > 0 && len(m.samples) == m.window {
		// Ring overwrite: O(1) bookkeeping where a slide would memmove
		// the window every push for the rest of the monitor's life.
		m.samples[m.head] = s
		if m.head++; m.head == m.window {
			m.head = 0
		}
		if m.scratch == nil {
			m.scratch = make([]Sample, m.window)
		}
		n := copy(m.scratch, m.samples[m.head:])
		copy(m.scratch[n:], m.samples[:m.head])
		view = m.scratch
	} else {
		m.samples = append(m.samples, s)
		view = m.samples
	}
	rec := Advise(view)
	changed := !m.has || m.rec.Scheme != rec.Scheme
	m.rec, m.has = rec, true
	return rec, changed
}

// Current returns the latest recommendation, false before the first Push.
func (m *Monitor) Current() (Recommendation, bool) { return m.rec, m.has }
