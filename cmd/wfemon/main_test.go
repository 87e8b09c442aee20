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
