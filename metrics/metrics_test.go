package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wfe"
)

// churn gives the domain's counters something to show.
func churn(t *testing.T, d *wfe.Domain[int]) {
	t.Helper()
	s := wfe.NewStack[int](d)
	for i := 0; i < 2000; i++ {
		if err := s.TryPush(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, ok := s.Pop(); !ok {
			t.Fatal("stack drained early")
		}
	}
}

func newDomain(t *testing.T) *wfe.Domain[int] {
	t.Helper()
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteOpenMetricsValidates(t *testing.T) {
	d := newDomain(t)
	churn(t, d)
	reg := NewRegistry()
	reg.Register("test", d.Telemetry)

	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := Validate(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, text)
	}
	for _, want := range []string{
		`wfe_allocs_total{domain="test",scheme="WFE"}`,
		`wfe_unreclaimed_blocks{domain="test",scheme="WFE"}`,
		"# TYPE wfe_allocs counter",
		"# EOF",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "wfe_sampler_ticks") {
		t.Error("sampler gauges exported without a registered sampler")
	}
}

func TestSamplerMetricsAndRecommendation(t *testing.T) {
	d := newDomain(t)
	s := d.StartSampler(wfe.SamplerConfig{Interval: time.Millisecond})
	defer s.Stop()
	churn(t, d)
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Ticks() < 3 {
		t.Fatal("sampler never ticked")
	}

	reg := NewRegistry()
	reg.Register("test", d.Telemetry)
	reg.RegisterSampler("test", s)

	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := Validate(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, text)
	}
	for _, want := range []string{
		"wfe_sampler_ticks", "wfe_allocs_per_second", "wfe_advisor_recommendation",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	d := newDomain(t)
	churn(t, d)
	reg := NewRegistry()
	reg.Register("test", d.Telemetry)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type %q, want %q", ct, ContentType)
	}
	if err := Validate(resp.Body); err != nil {
		t.Errorf("/metrics does not validate: %v", err)
	}

	vresp, err := http.Get(srv.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars []Vars
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if len(vars) != 1 || vars[0].Domain != "test" || vars[0].Telemetry.Allocs == 0 {
		t.Errorf("unexpected /vars payload: %+v", vars)
	}

	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", presp.StatusCode)
	}
}

func TestUnregister(t *testing.T) {
	d := newDomain(t)
	reg := NewRegistry()
	reg.Register("gone", d.Telemetry)
	reg.Unregister("gone")
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gone") {
		t.Error("unregistered domain still exported")
	}
	if err := Validate(&buf); err != nil {
		t.Errorf("empty exposition does not validate: %v", err)
	}
}

func TestServe(t *testing.T) {
	d := newDomain(t)
	reg := NewRegistry()
	reg.Register("test", d.Telemetry)
	addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := Validate(resp.Body); err != nil {
		t.Errorf("served exposition does not validate: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":         "# TYPE x gauge\n# HELP x y\nx 1\n",
		"sample without TYPE": "orphan 1\n# EOF\n",
		"counter sans _total": "# TYPE c counter\n# HELP c h\nc 1\n# EOF\n",
		"content after EOF":   "# EOF\n# TYPE x gauge\n",
		"duplicate TYPE":      "# TYPE x gauge\n# TYPE x gauge\n# EOF\n",
		"HELP before TYPE":    "# HELP x y\n# TYPE x gauge\n# EOF\n",
		"unknown comment":     "# FOO bar\n# EOF\n",
		"unknown metric type": "# TYPE x widget\n# EOF\n",
	}
	for name, text := range cases {
		if err := Validate(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Validate accepted malformed exposition", name)
		}
	}
	good := "# TYPE x gauge\n# HELP x y\nx{l=\"v\"} 1\n# TYPE c counter\n# HELP c h\nc_total 2\n# EOF\n"
	if err := Validate(strings.NewReader(good)); err != nil {
		t.Errorf("Validate rejected well-formed exposition: %v", err)
	}
}

// TestValidateRejectsIllegalEscapes pins the escape rule: OpenMetrics
// label values know exactly three escapes (\\, \", \n); Go's %q emits
// \x, \u and \r forms the format forbids, and Validate must catch them.
func TestValidateRejectsIllegalEscapes(t *testing.T) {
	header := "# TYPE x gauge\n# HELP x y\n"
	bad := map[string]string{
		"hex escape":     header + "x{l=\"a\\x01b\"} 1\n# EOF\n",
		"unicode escape": header + "x{l=\"caf\\u00e9\"} 1\n# EOF\n",
		"cr escape":      header + "x{l=\"a\\rb\"} 1\n# EOF\n",
		"tab escape":     header + "x{l=\"a\\tb\"} 1\n# EOF\n",
		"dangling slash": header + "x{l=\"a\\\"} 1\n# EOF\n",
	}
	for name, text := range bad {
		if err := Validate(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Validate accepted an illegal label escape", name)
		}
	}
	legal := map[string]string{
		"backslash":      header + "x{l=\"a\\\\b\"} 1\n# EOF\n",
		"quote":          header + "x{l=\"a\\\"b\"} 1\n# EOF\n",
		"newline":        header + "x{l=\"a\\nb\"} 1\n# EOF\n",
		"raw utf8":       header + "x{l=\"café ü\"} 1\n# EOF\n",
		"raw control":    header + "x{l=\"a\x01b\"} 1\n# EOF\n",
		"brace in value": header + "x{l=\"a}b\"} 1\n# EOF\n",
	}
	for name, text := range legal {
		if err := Validate(strings.NewReader(text)); err != nil {
			t.Errorf("%s: Validate rejected a legal exposition: %v", name, err)
		}
	}
}

// TestOpenMetricsEscapesHostileDomainName is the writer-side regression
// for the %q bug: a domain registered under a name containing a control
// character, a non-ASCII rune, quotes and backslashes must export as an
// exposition that both our Validate and the spec's escaping rules
// accept — raw UTF-8 for the exotic runes, backslash escapes for the
// three defined ones.
func TestOpenMetricsEscapesHostileDomainName(t *testing.T) {
	d := newDomain(t)
	churn(t, d)
	reg := NewRegistry()
	hostile := "café \x01 \"quoted\\path\"\nline2"
	reg.Register(hostile, d.Telemetry)

	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := Validate(strings.NewReader(text)); err != nil {
		t.Fatalf("hostile domain name produced an invalid exposition: %v\n%s", err, text)
	}
	want := `domain="caf` + "é \x01" + ` \"quoted\\path\"\nline2"`
	if !strings.Contains(text, want) {
		t.Errorf("exposition does not contain the spec-escaped label %q", want)
	}
	for _, illegal := range []string{`\x`, `\u`} {
		if strings.Contains(text, illegal) {
			t.Errorf("exposition contains the forbidden %q escape:\n%s", illegal, text)
		}
	}
}
