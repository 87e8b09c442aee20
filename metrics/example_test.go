package metrics_test

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"wfe"
	"wfe/metrics"
)

// ExampleRegistry shows the short path from a Domain to a scrapeable
// OpenMetrics endpoint: register the Domain and serve the handler. The
// registry reads the Domain's Telemetry, and the recommendation of its
// running sampler, at every scrape.
func ExampleRegistry() {
	d, _ := wfe.NewDomain[int](wfe.Options{Capacity: 1 << 16})
	d.StartSampler(wfe.SamplerConfig{Interval: 5 * time.Millisecond})
	defer d.Close()

	reg := metrics.NewRegistry()
	reg.Register("app", d)

	// In production: addr, _ := metrics.Serve("127.0.0.1:9100", reg)
	// and point a Prometheus scraper at http://<addr>/metrics.
	var _ http.Handler = reg.Handler()

	var buf strings.Builder
	_ = reg.WriteOpenMetrics(&buf)
	fmt.Println(metrics.Validate(strings.NewReader(buf.String())) == nil)
	// Output: true
}
