// Command wfemon is the live monitor of wfe's observability runtime: it
// watches a running process's metrics endpoint — or replays a recorded
// artifact — and renders a rate table plus the advisor's current scheme
// recommendation.
//
// Live mode polls the /vars endpoint that wfelat's -metrics flag or
// metrics.Serve exposes. Its rates are the counters' differences from the
// previous poll over the time between the two, so the first poll shows
// "-" for each:
//
//	wfemon -url http://127.0.0.1:9100 -interval 1s
//	wfemon -url http://127.0.0.1:9100 -once
//	wfemon -url http://127.0.0.1:9100 -validate   # scrape /metrics, check OpenMetrics shape
//
// Artifact mode reads a recorded wfe-chaos/v1 trajectory and renders it
// as the live table would have shown it, ending with the advisor's
// recommendation and its evidence, the stall/spike/park signature
// analysis (advisor.Advise). -json prints only the full Recommendation,
// as JSON:
//
//	wfemon stalled-reader-EBR.json
//	wfemon -json stalled-reader-EBR.json
//
// go test -v -run TestReplay ./cmd/wfemon records the stalled-reader EBR
// trajectory with internal/chaos and prints its replay.
//
// Exit status: 0 on success, 1 when -validate finds a malformed
// exposition, 2 on a usage, IO or schema error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"wfe"
	"wfe/advisor"
	"wfe/internal/chaos"
	"wfe/metrics"
)

func main() {
	var (
		url      = flag.String("url", "", "base URL of a live metrics endpoint (e.g. http://127.0.0.1:9100)")
		interval = flag.Duration("interval", time.Second, "poll interval in live mode")
		once     = flag.Bool("once", false, "poll a single time and exit")
		validate = flag.Bool("validate", false, "scrape /metrics once and validate the OpenMetrics exposition")
		count    = flag.Int("count", 0, "stop after this many polls (0 = forever)")
		jsonOut  = flag.Bool("json", false, "artifact mode: emit the full Recommendation as JSON instead of the table")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wfemon -url http://host:port [-interval 1s] [-once] [-validate]\n")
		fmt.Fprintf(os.Stderr, "       wfemon [-json] <artifact.json>   (schema: %s)\n", chaos.Schema)
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *url != "" && *validate:
		if err := validateEndpoint(*url); err != nil {
			fmt.Fprintf(os.Stderr, "wfemon: exposition invalid: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("OpenMetrics exposition OK")
	case *url != "":
		if err := live(os.Stdout, *url, *interval, *once, *count); err != nil {
			fmt.Fprintf(os.Stderr, "wfemon: %v\n", err)
			os.Exit(2)
		}
	case flag.NArg() == 1:
		if err := replay(os.Stdout, flag.Arg(0), *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "wfemon: %v\n", err)
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// validateEndpoint scrapes /metrics and checks the exposition's shape —
// what the CI observability job runs against a live benchmark.
func validateEndpoint(base string) error {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return metrics.Validate(resp.Body)
}

// live polls /vars and renders the table to w until interrupted (or
// count polls have run). Errors on individual polls are transient — a
// tool serving -metrics may not have registered its domain yet — so they
// print and the loop continues; only a setup error aborts.
func live(w io.Writer, base string, interval time.Duration, once bool, count int) error {
	base = strings.TrimRight(base, "/")
	var prev poll
	for polls := 1; ; polls++ {
		vars, err := fetchVars(base)
		if err != nil {
			if once {
				return err
			}
			fmt.Fprintf(os.Stderr, "wfemon: poll: %v\n", err)
		} else {
			cur := poll{at: time.Now(), vars: vars}
			render(w, cur, prev)
			prev = cur
		}
		if once || (count > 0 && polls >= count) {
			return nil
		}
		time.Sleep(interval)
	}
}

// poll is one /vars reading and when it was taken.
type poll struct {
	at   time.Time
	vars []metrics.Vars
}

func fetchVars(base string) ([]metrics.Vars, error) {
	resp, err := http.Get(base + "/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("GET /vars: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var vars []metrics.Vars
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("GET /vars: %w", err)
	}
	return vars, nil
}

// render prints one poll's table, a row per registered domain. A rate is
// the counter's difference from the previous poll over the time between
// them; parks is the difference alone. A domain the previous poll lacks
// shows "-" for each.
func render(w io.Writer, cur, prev poll) {
	last := make(map[string]wfe.Telemetry, len(prev.vars))
	for _, v := range prev.vars {
		last[v.Domain] = v.Telemetry
	}
	dt := cur.at.Sub(prev.at).Seconds()
	delta := func(now, then uint64) float64 { return float64(now) - float64(then) }
	fmt.Fprintf(w, "%s\n", cur.at.Format("15:04:05"))
	fmt.Fprintf(w, "  %-12s %-8s %10s %10s %12s %12s %10s %8s  %s\n",
		"domain", "scheme", "backlog", "in-use", "allocs/s", "retires/s", "scans/s", "parks", "advice")
	for _, v := range cur.vars {
		t := v.Telemetry
		allocRate, retireRate, scanRate, parks := "-", "-", "-", "-"
		if p, ok := last[v.Domain]; ok && dt > 0 {
			allocRate = fmt.Sprintf("%.0f", delta(t.Allocs, p.Allocs)/dt)
			// Every retired block was either recycled or is still in the
			// backlog.
			retires := delta(t.Frees, p.Frees) + float64(t.Unreclaimed-p.Unreclaimed)
			retireRate = fmt.Sprintf("%.0f", retires/dt)
			scanRate = fmt.Sprintf("%.1f", delta(t.ScanScans, p.ScanScans)/dt)
			parks = fmt.Sprintf("%.0f", delta(t.GuardParks, p.GuardParks))
		}
		advice := v.Recommendation
		if advice == "" {
			advice = "-"
		}
		fmt.Fprintf(w, "  %-12s %-8s %10d %10d %12s %12s %10s %8s  %s\n",
			v.Domain, t.Scheme, t.Unreclaimed, t.InUse,
			allocRate, retireRate, scanRate, parks, advice)
	}
}

// replay loads a recorded artifact and renders it to w: the per-tick rate
// table a live monitor would have shown, then the advisor's verdict — or,
// with jsonOut, the verdict alone as indented JSON.
func replay(w io.Writer, path string, jsonOut bool) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch head.Schema {
	case chaos.Schema:
		var tr chaos.Trajectory
		if err := json.Unmarshal(blob, &tr); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if jsonOut {
			return writeJSON(w, advisor.Advise(tr.Samples()))
		}
		return replayChaos(w, &tr)
	case "":
		return fmt.Errorf("%s: no schema field; not a wfe artifact", path)
	default:
		return fmt.Errorf("%s: unsupported schema %q (want %s)", path, head.Schema, chaos.Schema)
	}
}

// writeJSON prints a recommendation as indented JSON.
func writeJSON(w io.Writer, rec advisor.Recommendation) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// replayChaos judges each prefix of the trajectory with Advise, as a
// live sampler would have after that tick, printing the table rows a live
// session would have produced (decimated to at most 24 rows) and every
// recommendation change as it happens.
func replayChaos(w io.Writer, tr *chaos.Trajectory) error {
	samples := tr.Samples()
	if len(samples) == 0 {
		return fmt.Errorf("trajectory has no ticks")
	}
	fmt.Fprintf(w, "scenario %q, scheme %s, %d ticks (seed %d)\n",
		tr.Scenario, tr.Scheme, len(tr.Ticks), tr.Seed)
	fmt.Fprintf(w, "  %6s %10s %10s %10s %8s %8s  %s\n",
		"tick", "backlog", "scans", "p99steps", "parks", "stalled", "advice")
	step := (len(samples) + 23) / 24
	var rec advisor.Recommendation
	for i, s := range samples {
		prev := rec.Scheme
		rec = advisor.Advise(samples[:i+1])
		changed := rec.Scheme != prev
		if i%step == 0 || changed || i == len(samples)-1 {
			stalled := ""
			if tr.Ticks[i].Stalled {
				stalled = "yes"
			}
			marker := ""
			if changed {
				marker = "  <- advice now " + rec.Scheme
			}
			fmt.Fprintf(w, "  %6d %10d %10d %10d %8d %8s  %s%s\n",
				s.Tick, s.Unreclaimed, s.ScanScans, s.P99Steps, s.GuardParks, stalled, rec.Scheme, marker)
		}
	}
	fmt.Fprintf(w, "\nfinal recommendation: %s\n", rec.Scheme)
	for _, r := range rec.Reasons {
		fmt.Fprintf(w, "  - %s\n", r)
	}
	fmt.Fprintf(w, "summary: highwater %d (tick %d), final backlog %d, %d scans, %d parks\n",
		tr.Summary.UnreclaimedMax, tr.Summary.UnreclaimedMaxTick,
		tr.Summary.UnreclaimedFinal, tr.Summary.Scans, tr.Summary.Parks)
	return nil
}
