package api

import (
	"fmt"
	"net/http"
	"strings"
)

// Metrics accumulates one Prometheus text exposition (format 0.0.4,
// which every mainstream scraper accepts); both tiers' /metrics are
// written through it. Each family's HELP and TYPE preamble comes
// first, then its samples.
type Metrics struct {
	b strings.Builder
}

// Family starts a family of type typ ("counter" or "gauge").
func (m *Metrics) Family(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one integer sample of the current family. labels are
// name, value pairs; values are quoted Go-style.
func (m *Metrics) Sample(name string, v uint64, labels ...string) {
	m.b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&m.b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		m.b.WriteByte('}')
	}
	fmt.Fprintf(&m.b, " %d\n", v)
}

// Counter writes a one-sample counter family.
func (m *Metrics) Counter(name, help string, v uint64) {
	m.Family(name, help, "counter")
	m.Sample(name, v)
}

// Gauge writes a one-sample gauge family.
func (m *Metrics) Gauge(name, help string, v float64) {
	m.Family(name, help, "gauge")
	fmt.Fprintf(&m.b, "%s %g\n", name, v)
}

// MetricsHandler serves GET with the exposition fill writes.
func MetricsHandler(fill func(*Metrics)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		var m Metrics
		fill(&m)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(m.b.String()))
	})
}
