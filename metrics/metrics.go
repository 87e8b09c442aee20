// Package metrics is the export tier of wfe's observability runtime: an
// HTTP handler that renders registered Domains' telemetry as OpenMetrics
// text (the Prometheus exposition format) and as a JSON variables dump,
// with net/http/pprof mounted alongside. It deliberately depends only on
// the standard library and the root wfe package — register a Domain's
// Telemetry method and point a scraper at /metrics:
//
//	reg := metrics.NewRegistry()
//	reg.Register("app", d.Telemetry)
//	reg.RegisterSampler("app", d.Sampler())
//	go http.ListenAndServe("127.0.0.1:9100", reg.Handler())
//
// The registry pulls: nothing is collected until a scrape arrives, so an
// idle endpoint costs nothing and the numbers are as fresh as the scrape.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"wfe"
)

// ContentType is the OpenMetrics exposition content type served by the
// /metrics endpoint.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// A Registry holds named telemetry sources and serves them over HTTP.
// Register sources at setup; the handler snapshots them per scrape.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	sources  map[string]func() wfe.Telemetry
	samplers map[string]*wfe.Sampler
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		sources:  map[string]func() wfe.Telemetry{},
		samplers: map[string]*wfe.Sampler{},
	}
}

// Register adds (or replaces) a telemetry source under the given name,
// which becomes the metrics' `domain` label. A Domain's Telemetry method
// value fits directly: reg.Register("app", d.Telemetry).
func (r *Registry) Register(name string, source func() wfe.Telemetry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = source
}

// RegisterSampler attaches a Domain's background Sampler under the same
// name, adding its derived-rate gauges to the exposition. A nil sampler
// (Domain built without one) is ignored.
func (r *Registry) RegisterSampler(name string, s *wfe.Sampler) {
	if s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers[name] = s
}

// Unregister removes a source and its sampler.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sources, name)
	delete(r.samplers, name)
}

// snapshot collects every registered source once, in name order.
type row struct {
	name  string
	tel   wfe.Telemetry
	rates *wfe.SamplerRates
	rec   string
}

func (r *Registry) snapshot() []row {
	r.mu.Lock()
	names := make([]string, 0, len(r.sources))
	for n := range r.sources {
		names = append(names, n)
	}
	sources := make(map[string]func() wfe.Telemetry, len(r.sources))
	samplers := make(map[string]*wfe.Sampler, len(r.samplers))
	for n, s := range r.sources {
		sources[n] = s
	}
	for n, s := range r.samplers {
		samplers[n] = s
	}
	r.mu.Unlock()

	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, n := range names {
		rw := row{name: n, tel: sources[n]()}
		if s := samplers[n]; s != nil {
			rates := s.Rates()
			rw.rates = &rates
			if rec, ok := s.Recommendation(); ok {
				rw.rec = rec.Scheme
			}
		}
		rows = append(rows, rw)
	}
	return rows
}

// metric is one exposition family: OpenMetrics type, help text, and a
// value extractor per registered domain.
type metric struct {
	name string
	typ  string // "counter" | "gauge"
	help string
	val  func(row) (float64, bool)
}

func counter(name, help string, f func(wfe.Telemetry) uint64) metric {
	return metric{name, "counter", help, func(r row) (float64, bool) { return float64(f(r.tel)), true }}
}

func gauge(name, help string, f func(row) (float64, bool)) metric {
	return metric{name, "gauge", help, f}
}

func telGauge(name, help string, f func(wfe.Telemetry) float64) metric {
	return gauge(name, help, func(r row) (float64, bool) { return f(r.tel), true })
}

func rateGauge(name, help string, f func(wfe.SamplerRates) float64) metric {
	return gauge(name, help, func(r row) (float64, bool) {
		if r.rates == nil {
			return 0, false
		}
		return f(*r.rates), true
	})
}

// families is the fixed exposition schema: every Telemetry counter plus
// the sampler's derived rates. OpenMetrics counters carry the `_total`
// suffix; point-in-time readings are gauges.
var families = []metric{
	telGauge("wfe_unreclaimed_blocks", "Retired blocks not yet recycled.",
		func(t wfe.Telemetry) float64 { return float64(t.Unreclaimed) }),
	telGauge("wfe_in_use_blocks", "Allocated blocks (live or retired).",
		func(t wfe.Telemetry) float64 { return float64(t.InUse) }),
	telGauge("wfe_capacity_blocks", "Arena size in blocks.",
		func(t wfe.Telemetry) float64 { return float64(t.Capacity) }),
	telGauge("wfe_era", "Global era/epoch clock (0 for clock-less schemes).",
		func(t wfe.Telemetry) float64 { return float64(t.Era) }),
	telGauge("wfe_guards_free", "Guard tids currently available to the pool.",
		func(t wfe.Telemetry) float64 { return float64(t.GuardsFree) }),
	telGauge("wfe_max_guards", "Configured guard count.",
		func(t wfe.Telemetry) float64 { return float64(t.MaxGuards) }),
	telGauge("wfe_protect_steps_p99", "p99 protect-loop iteration count.",
		func(t wfe.Telemetry) float64 { return float64(t.P99Steps) }),
	telGauge("wfe_protect_steps_max", "Worst protect-loop iteration count seen.",
		func(t wfe.Telemetry) float64 { return float64(t.MaxSteps) }),
	counter("wfe_allocs", "Total block allocations.", func(t wfe.Telemetry) uint64 { return t.Allocs }),
	counter("wfe_frees", "Total blocks recycled.", func(t wfe.Telemetry) uint64 { return t.Frees }),
	counter("wfe_slow_paths", "Protected reads that requested helping (WFE/WFEIBR).",
		func(t wfe.Telemetry) uint64 { return t.SlowPaths }),
	counter("wfe_scan_runs", "Cleanup scans over the retire lists.",
		func(t wfe.Telemetry) uint64 { return t.ScanScans }),
	counter("wfe_scan_blocks", "Retired blocks examined by cleanup scans.",
		func(t wfe.Telemetry) uint64 { return t.ScanBlocks }),
	counter("wfe_scan_nanoseconds", "Nanoseconds spent in cleanup scans.",
		func(t wfe.Telemetry) uint64 { return t.ScanNanos }),
	counter("wfe_arena_seg_pushes", "Whole segments published to the guards' mailboxes.",
		func(t wfe.Telemetry) uint64 { return t.ArenaSegPushes }),
	counter("wfe_arena_seg_pops", "Whole segments claimed from the mailboxes by allocation misses.",
		func(t wfe.Telemetry) uint64 { return t.ArenaSegPops }),
	counter("wfe_arena_bump_highwater_blocks", "Distinct blocks ever handed out by the bump allocator.",
		func(t wfe.Telemetry) uint64 { return t.ArenaBumpHighwater }),
	counter("wfe_guard_acquires", "Guards a guard-table scan or a handoff gave out.",
		func(t wfe.Telemetry) uint64 { return t.GuardAcquires }),
	counter("wfe_guard_parks", "Guard acquisitions that parked waiting.",
		func(t wfe.Telemetry) uint64 { return t.GuardParks }),
	counter("wfe_guard_cache_hits", "Leases that claimed, without parking, a guard last returned by Unpin.",
		func(t wfe.Telemetry) uint64 { return t.GuardCacheHits }),
	counter("wfe_guard_cache_misses", "Leases that parked or claimed a guard not last returned by Unpin.",
		func(t wfe.Telemetry) uint64 { return t.GuardCacheMisses }),
	counter("wfe_scheme_switches", "Live scheme swaps completed by Domain.Switch.",
		func(t wfe.Telemetry) uint64 { return t.SchemeSwitches }),
	counter("wfe_batch_ops", "Batched operations (MultiGet, TryPushAll, ...) completed.",
		func(t wfe.Telemetry) uint64 { return t.BatchOps }),
	counter("wfe_batch_items", "Items run inside batched operations.",
		func(t wfe.Telemetry) uint64 { return t.BatchedItems }),
	telGauge("wfe_arena_pressure", "Arena occupancy fraction (in-use blocks over capacity).",
		func(t wfe.Telemetry) float64 {
			if t.Capacity == 0 {
				return 0
			}
			return float64(t.InUse) / float64(t.Capacity)
		}),
	counter("wfe_alloc_stalls", "Allocations that found the arena exhausted and entered the emergency-reclamation pipeline.",
		func(t wfe.Telemetry) uint64 { return t.AllocStalls }),
	counter("wfe_emergency_scans", "Out-of-cadence cleanup scans forced by allocation stalls.",
		func(t wfe.Telemetry) uint64 { return t.EmergencyScans }),
	rateGauge("wfe_allocs_per_second", "EWMA block allocation rate (sampler).",
		func(r wfe.SamplerRates) float64 { return r.AllocsPerSec }),
	rateGauge("wfe_frees_per_second", "EWMA block recycle rate (sampler).",
		func(r wfe.SamplerRates) float64 { return r.FreesPerSec }),
	rateGauge("wfe_retires_per_second", "EWMA retire rate (sampler).",
		func(r wfe.SamplerRates) float64 { return r.RetiresPerSec }),
	rateGauge("wfe_scans_per_second", "EWMA cleanup-scan rate (sampler).",
		func(r wfe.SamplerRates) float64 { return r.ScansPerSec }),
	rateGauge("wfe_backlog_slope_blocks_per_second", "EWMA signed backlog growth rate (sampler).",
		func(r wfe.SamplerRates) float64 { return r.BacklogSlope }),
	rateGauge("wfe_guard_parks_per_tick", "EWMA guard parks per sampler tick.",
		func(r wfe.SamplerRates) float64 { return r.ParksPerTick }),
	gauge("wfe_sampler_ticks", "Samples collected by the background sampler.",
		func(r row) (float64, bool) {
			if r.rates == nil {
				return 0, false
			}
			return float64(r.rates.Ticks), true
		}),
}

// escapeLabel renders a label value per the OpenMetrics ABNF, in which
// exactly three escape sequences exist: `\\` for backslash, `\"` for
// double-quote and `\n` for line feed. Every other byte — control
// characters and non-ASCII UTF-8 included — is emitted raw. Go's %q is
// not a substitute: it emits \x, \u and \r escapes for exotic runes,
// which the format forbids and strict scrapers reject.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// WriteOpenMetrics renders every registered source in the OpenMetrics
// text exposition format, terminated by the mandatory `# EOF` line. Each
// sample carries a `domain` label (the Register name) and a `scheme`
// label (the Domain's reclamation scheme); the live advisor
// recommendation, when a sampler is attached, exports as the info-style
// gauge wfe_advisor_recommendation{recommended="..."} 1.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	rows := r.snapshot()
	bw := bufio.NewWriter(w)
	for _, m := range families {
		vals := make([]string, 0, len(rows))
		for _, rw := range rows {
			v, ok := m.val(rw)
			if !ok {
				continue
			}
			// OpenMetrics counters expose the `_total`-suffixed sample of
			// the family name.
			sample := m.name
			if m.typ == "counter" {
				sample += "_total"
			}
			vals = append(vals, fmt.Sprintf("%s{domain=\"%s\",scheme=\"%s\"} %g",
				sample, escapeLabel(rw.name), escapeLabel(rw.tel.Scheme), v))
		}
		if len(vals) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.typ)
		fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		for _, v := range vals {
			fmt.Fprintln(bw, v)
		}
	}
	recs := false
	for _, rw := range rows {
		if rw.rec != "" {
			recs = true
			break
		}
	}
	if recs {
		fmt.Fprintln(bw, "# TYPE wfe_advisor_recommendation gauge")
		fmt.Fprintln(bw, "# HELP wfe_advisor_recommendation Live advisor scheme recommendation (1 = currently recommended).")
		for _, rw := range rows {
			if rw.rec != "" {
				fmt.Fprintf(bw, "wfe_advisor_recommendation{domain=\"%s\",scheme=\"%s\",recommended=\"%s\"} 1\n",
					escapeLabel(rw.name), escapeLabel(rw.tel.Scheme), escapeLabel(rw.rec))
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// Vars is the JSON shape of the /vars endpoint: per-domain telemetry plus
// the sampler's rates and recommendation when attached.
type Vars struct {
	Domain         string            `json:"domain"`
	Telemetry      wfe.Telemetry     `json:"telemetry"`
	Rates          *wfe.SamplerRates `json:"rates,omitempty"`
	Recommendation string            `json:"recommendation,omitempty"`
}

// WriteVars renders every registered source as a JSON array — the
// machine-readable sibling of /metrics, for tools (cmd/wfemon) that want
// typed values without parsing the exposition format.
func (r *Registry) WriteVars(w io.Writer) error {
	rows := r.snapshot()
	out := make([]Vars, len(rows))
	for i, rw := range rows {
		out[i] = Vars{Domain: rw.name, Telemetry: rw.tel, Rates: rw.rates, Recommendation: rw.rec}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns the registry's HTTP mux:
//
//	/metrics        OpenMetrics exposition
//	/vars           JSON telemetry dump
//	/debug/pprof/…  net/http/pprof
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := r.WriteOpenMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := r.WriteVars(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Validate reads an OpenMetrics text exposition and checks its structural
// invariants: every sample belongs to a declared family, counter samples
// carry the _total suffix, TYPE lines precede their samples, and the
// stream ends with `# EOF`. It is what the CI observability job runs
// against a live scrape; a nil error means the exposition is well-formed.
func Validate(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	types := map[string]string{} // family -> type
	sawEOF := false
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if sawEOF && text != "" {
			return fmt.Errorf("line %d: content after # EOF", line)
		}
		switch {
		case text == "":
			continue
		case text == "# EOF":
			sawEOF = true
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			name, typ := fields[2], fields[3]
			if typ != "counter" && typ != "gauge" && typ != "info" && typ != "histogram" && typ != "summary" {
				return fmt.Errorf("line %d: unknown metric type %q", line, typ)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for family %q", line, name)
			}
			types[name] = typ
		case strings.HasPrefix(text, "# HELP "):
			fields := strings.Fields(text)
			if len(fields) < 3 {
				return fmt.Errorf("line %d: malformed HELP line %q", line, text)
			}
			if _, ok := types[fields[2]]; !ok {
				return fmt.Errorf("line %d: HELP for undeclared family %q", line, fields[2])
			}
		case strings.HasPrefix(text, "#"):
			return fmt.Errorf("line %d: unknown comment line %q", line, text)
		default:
			name := text
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			family, ok := types[name]
			if !ok && strings.HasSuffix(name, "_total") {
				family, ok = types[strings.TrimSuffix(name, "_total")]
				if ok && family != "counter" {
					return fmt.Errorf("line %d: _total sample %q on non-counter family", line, name)
				}
			}
			if !ok {
				return fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", line, name)
			}
			if family == "counter" && !strings.HasSuffix(name, "_total") {
				return fmt.Errorf("line %d: counter sample %q missing _total suffix", line, name)
			}
			rest := text[len(name):]
			if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
				return fmt.Errorf("line %d: malformed sample %q", line, text)
			}
			if err := checkLabelEscapes(rest); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawEOF {
		return fmt.Errorf("exposition does not end with # EOF")
	}
	return nil
}

// checkLabelEscapes walks a sample line's label section and rejects any
// escape sequence outside the three the OpenMetrics ABNF defines (`\\`,
// `\"`, `\n`). This is the guard against writers that quote label values
// with Go's %q, whose \x/\u/\r escapes strict scrapers refuse to parse.
func checkLabelEscapes(rest string) error {
	if !strings.HasPrefix(rest, "{") {
		return nil
	}
	inQuote := false
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case inQuote && c == '\\':
			i++
			if i == len(rest) {
				return fmt.Errorf("label section ends mid-escape: %q", rest)
			}
			if e := rest[i]; e != '\\' && e != '"' && e != 'n' {
				return fmt.Errorf(`illegal escape \%c in label value (OpenMetrics defines only \\, \" and \n)`, e)
			}
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return nil
		}
	}
	return fmt.Errorf("unterminated label section %q", rest)
}

// Serve binds addr, serves the registry's handler on it in a background
// goroutine, and returns the bound address (useful with a ":0" port) —
// the one-liner the command-line tools' -metrics flag uses. The listener
// stays open for the life of the process; tools expose it until exit.
func Serve(addr string, reg *Registry) (string, error) {
	srv := &http.Server{Handler: reg.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
