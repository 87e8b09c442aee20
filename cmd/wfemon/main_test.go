package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfe"
	"wfe/advisor"
	"wfe/internal/chaos"
	"wfe/metrics"
)

// TestReplay drives artifact mode on a chaos trajectory recorded here, as
// the table and as -json, plus the two inputs it must refuse.
func TestReplay(t *testing.T) {
	tr, err := chaos.Run(wfe.EBR, chaos.StalledReader().Scenario)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, string(blob))
	var table, out strings.Builder
	if err := replay(&table, path, false); err != nil {
		t.Fatal(err)
	}
	if want := "\nfinal recommendation: WFE\n"; !strings.Contains(table.String(), want) {
		t.Errorf("table lacks %q:\n%s", want, table.String())
	}
	t.Logf("replay of the stalled-reader EBR trajectory:\n%s", table.String())
	if err := replay(&out, path, true); err != nil {
		t.Fatalf("-json: %v", err)
	}
	var rec advisor.Recommendation
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
		t.Fatalf("-json does not decode: %v\n%s", err, out.String())
	}
	if rec.Scheme != "WFE" {
		t.Errorf("-json: Scheme = %q, want WFE", rec.Scheme)
	}
	for _, content := range []string{`{"ticks": []}`, `{"schema": "wfe-other/v9"}`} {
		if err := replay(io.Discard, writeFile(t, content), false); err == nil {
			t.Errorf("replay accepted %s", content)
		}
	}
}

// writeFile writes content to a fresh file under t.TempDir.
func writeFile(t *testing.T, content string) string {
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLive drives live mode against a served Registry whose WFE Domain
// lives against its arena ceiling with a 1 ms sampler running: the
// exposition validates and carries the pressure series and the advice,
// and two polls render — the first with "-" for every rate, the second
// with numbers.
func TestLive(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:       wfe.WFE,
		Capacity:     256,
		MaxGuards:    4,
		AllocRetries: 2,
		AllocBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	st := wfe.NewStack[uint64](d)
	for st.TryPush(1) == nil {
	}
	// Free a little and refill, so the emergency pipeline has retired
	// blocks to recycle.
	for i := 0; i < 64; i++ {
		st.Pop()
	}
	for i := 0; i < 32 && st.TryPush(1) == nil; i++ {
	}
	if tel := d.Telemetry(); tel.AllocStalls == 0 || tel.EmergencyScans == 0 {
		t.Fatalf("pressure counters empty after an exhausted fill: %+v", tel)
	}
	for deadline := time.Now().Add(2 * time.Second); s.Ticks() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	reg := metrics.NewRegistry()
	reg.Register("press", d)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	if err := validateEndpoint(srv.URL); err != nil {
		t.Fatalf("validateEndpoint: %v", err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wfe_arena_pressure", "wfe_alloc_stalls_total", "wfe_emergency_scans_total", "wfe_advisor_recommendation"} {
		if !strings.Contains(string(body), "\n"+want+"{") {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	var out strings.Builder
	if err := live(&out, srv.URL, 10*time.Millisecond, false, 2); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[0] == "press" {
			rows = append(rows, f)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("want one domain row per poll, two polls; got %d rows:\n%s", len(rows), out.String())
	}
	for i, f := range rows {
		for _, rate := range f[4:8] {
			if isNumber := rate != "-"; isNumber != (i == 1) {
				t.Errorf("poll %d renders rate %q: want \"-\" on the first poll and numbers on the second\n%s", i+1, rate, out.String())
			}
		}
		if f[8] == "-" {
			t.Errorf("poll %d renders no advice although the sampler runs:\n%s", i+1, out.String())
		}
	}
	t.Logf("live table:\n%s", out.String())
}
