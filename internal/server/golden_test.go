package server

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
	"sync"
	"testing"

	pathcost "repro"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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

// uptimeSample matches the one sample that moves from run to run.
var uptimeSample = regexp.MustCompile(`(?m)^(pathcost_\w*uptime_seconds) .*$`)

var (
	goldenSysOnce sync.Once
	goldenSysInst *pathcost.System
	goldenSysErr  error
)

// goldenSystem is a private System with a query cache and a memo, so
// the exposition's cache and memo families carry counts no other test
// can move.
func goldenSystem(t *testing.T) *pathcost.System {
	t.Helper()
	goldenSysOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		goldenSysInst, goldenSysErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 11, Params: params,
		})
		if goldenSysErr == nil {
			goldenSysInst.EnableQueryCache(16)
			goldenSysInst.EnableConvMemo(64)
		}
	})
	if goldenSysErr != nil {
		t.Fatal(goldenSysErr)
	}
	return goldenSysInst
}

func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestMetricsExpositionGolden pins the server's /metrics bytes — every
// family, its order, HELP text and sample format — after a fixed
// sequence of requests, and the 405 a non-GET scrape gets. Only the
// uptime sample is masked.
func TestMetricsExpositionGolden(t *testing.T) {
	sys := goldenSystem(t)
	srv := New(sys, Config{MaxInFlight: 3, MaxQueue: 5})
	h := srv.Handler()
	path, depart := densePath(t, sys)
	body, err := json.Marshal(distributionRequest{Path: path, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a cache miss, then a hit
		if rec := serve(h, http.MethodPost, "/v1/distribution", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("distribution = %d %s", rec.Code, rec.Body)
		}
	}
	if rec := serve(h, http.MethodPost, "/v1/distribution", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty distribution = %d", rec.Code)
	}
	get := serve(srv.Metrics(), http.MethodGet, "/metrics", "")
	get.Body = bytes.NewBuffer(uptimeSample.ReplaceAll(get.Body.Bytes(), []byte("$1 UPTIME")))
	post := serve(srv.Metrics(), http.MethodPost, "/metrics", "")
	got := append(renderResponse(get, "Content-Type"), renderResponse(post, "Content-Type", "X-Content-Type-Options")...)
	checkGolden(t, "metrics.golden", got)
}

// TestShedResponseGolden pins the server's 429: status, Retry-After,
// content type and the exact error body.
func TestShedResponseGolden(t *testing.T) {
	srv := New(testSystem(t), Config{MaxInFlight: 1, MaxQueue: 1})
	srv.gate.Queued.Store(1) // one waiter already queued: the queue is full
	defer srv.gate.Queued.Store(0)
	rec := serve(srv.Handler(), http.MethodPost, "/v1/distribution", `{}`)
	checkGolden(t, "shed.golden", renderResponse(rec, "Content-Type", "Retry-After"))
	if got := srv.gate.Shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}
