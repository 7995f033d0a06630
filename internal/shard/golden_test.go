package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// renderResponse writes a recorded answer as its status line, the named
// headers and the body, so a golden pins all three.
func renderResponse(rec *httptest.ResponseRecorder, headers ...string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", rec.Code)
	for _, h := range headers {
		fmt.Fprintf(&b, "%s: %s\n", h, rec.Header().Get(h))
	}
	b.WriteString("\n")
	b.Write(rec.Body.Bytes())
	return b.Bytes()
}

func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestCoordinatorMetricsExpositionGolden pins the coordinator's
// /metrics bytes after a fixed sequence of requests — an in-region
// query, a relayed one, a 400 and a shed 429 — and the 405 a non-GET
// scrape gets. The uptime sample and the shards' ephemeral URLs are
// masked; everything else, label quoting included, is compared byte for
// byte.
func TestCoordinatorMetricsExpositionGolden(t *testing.T) {
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.MaxQueue = 1
		cfg.HedgeAfter = time.Hour // no hedge may move the call counts
	})
	sys := testSystem(t)
	h := f.coord.Handler()
	for _, p := range [][]int64{edgeIDs(inRegionPath(t, f, sys)), edgeIDs(crossRegionPath(t, f, sys))} {
		body, err := json.Marshal(api.DistributionRequest{Path: p, Depart: 8 * 3600})
		if err != nil {
			t.Fatal(err)
		}
		if rec := serve(h, http.MethodPost, "/v1/distribution", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("distribution = %d %s", rec.Code, rec.Body)
		}
	}
	if rec := serve(h, http.MethodPost, "/v1/distribution", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty distribution = %d", rec.Code)
	}
	f.coord.gate.Queued.Store(1) // one waiter already queued: the queue is full
	shed := serve(h, http.MethodPost, "/v1/distribution", `{}`)
	f.coord.gate.Queued.Store(0)
	checkGolden(t, "shed.golden", renderResponse(shed, "Content-Type", "Retry-After"))

	get := serve(h, http.MethodGet, "/metrics", "")
	out := regexp.MustCompile(`(?m)^(pathcost_coordinator_uptime_seconds) .*$`).
		ReplaceAll(get.Body.Bytes(), []byte("$1 UPTIME"))
	for i, ts := range f.shardTS {
		out = bytes.ReplaceAll(out, []byte(ts.URL), []byte(fmt.Sprintf("http://shard%d", i)))
	}
	get.Body = bytes.NewBuffer(out)
	post := serve(h, http.MethodPost, "/metrics", "")
	got := append(renderResponse(get, "Content-Type"), renderResponse(post, "Content-Type", "X-Content-Type-Options")...)
	checkGolden(t, "metrics.golden", got)
}
