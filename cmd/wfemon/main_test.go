package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfe"
	"wfe/advisor"
	"wfe/internal/chaos"
)

// TestReplay drives artifact mode on both recorded schemas: a chaos
// trajectory recorded here and the committed benchmark sweep, each as the
// table and as -json, plus the two inputs it must refuse.
func TestReplay(t *testing.T) {
	tr, err := chaos.Run(wfe.EBR, chaos.StalledReader().Scenario)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	chaosFile := writeFile(t, string(blob))
	for _, tc := range []struct {
		path, want, scheme string
	}{
		{chaosFile, "\nfinal recommendation: WFE\n", "WFE"},
		{"../../BENCH_BASELINE.json", "\nrecommendation: ", ""},
	} {
		var table, out strings.Builder
		if err := replay(&table, tc.path, false); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !strings.Contains(table.String(), tc.want) {
			t.Errorf("%s: table lacks %q:\n%s", tc.path, tc.want, table.String())
		}
		if tc.path == chaosFile {
			t.Logf("replay of the stalled-reader EBR trajectory:\n%s", table.String())
		}
		if err := replay(&out, tc.path, true); err != nil {
			t.Fatalf("%s -json: %v", tc.path, err)
		}
		var rec advisor.Recommendation
		if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
			t.Fatalf("%s -json does not decode: %v\n%s", tc.path, err, out.String())
		}
		if rec.Scheme == "" || (tc.scheme != "" && rec.Scheme != tc.scheme) {
			t.Errorf("%s -json: Scheme = %q, want %q", tc.path, rec.Scheme, tc.scheme)
		}
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
