package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postBatchEntry posts a one-entry /v1/batch request and returns the
// entry's result.
func postBatchEntry(t *testing.T, url string, q batchQuery) batchResult {
	t.Helper()
	var batch batchResponse
	code := postJSON(t, url+"/v1/batch", batchRequest{Queries: []batchQuery{q}}, &batch)
	if code != http.StatusOK || len(batch.Results) != 1 {
		t.Fatalf("batch = %d (%d results)", code, len(batch.Results))
	}
	return batch.Results[0]
}

// TestBatchStateRelay drives the partial-state relay the sharded
// coordinator runs through /v1/batch entries of kind "state", the
// protocol's one door: a first segment from a point interval, then a
// continuation seeded with the returned (state, UI).
func TestBatchStateRelay(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	if len(path) < 2 {
		t.Fatal("need a multi-edge dense path")
	}
	cut := len(path) / 2

	r := postBatchEntry(t, ts.URL, batchQuery{
		Kind: "state", Path: path[:cut], Depart: depart, UILo: depart, UIHi: depart,
	})
	if r.Status != http.StatusOK || r.State == nil {
		t.Fatalf("first segment = %+v", r)
	}
	first := r.State
	if !bytes.HasPrefix(first.State, []byte("PST\x02")) {
		t.Fatalf("first segment state malformed: %q", first.State)
	}
	if first.Factors <= 0 || first.MaxRank <= 0 || first.UIHi < first.UILo {
		t.Fatalf("first segment metadata malformed: %+v", first)
	}

	r = postBatchEntry(t, ts.URL, batchQuery{
		Kind: "state", Path: path[cut:], Depart: depart,
		UILo: first.UILo, UIHi: first.UIHi, State: first.State,
	})
	if r.Status != http.StatusOK || r.State == nil {
		t.Fatalf("continuation = %+v", r)
	}
	if cont := r.State; len(cont.State) == 0 || cont.Factors <= 0 {
		t.Fatalf("continuation malformed: %+v", cont)
	}
}

// TestBatchStateWideIntervalAnswersPromptly: a relayed departure
// interval is wire data, and one spanning millions of days must cost
// what a narrow one costs — the overlap of a daily interval with it is
// measured, not counted day by day — instead of holding a MaxInFlight
// slot for minutes with no deadline check on the way.
func TestBatchStateWideIntervalAnswersPromptly(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	if len(path) < 2 {
		t.Fatal("need a multi-edge dense path")
	}
	cut := len(path) / 2
	r := postBatchEntry(t, ts.URL, batchQuery{
		Kind: "state", Path: path[:cut], Depart: depart, UILo: depart, UIHi: depart,
	})
	if r.Status != http.StatusOK || r.State == nil {
		t.Fatalf("first segment = %+v", r)
	}
	start := time.Now()
	r = postBatchEntry(t, ts.URL, batchQuery{
		Kind: "state", Path: path[cut:], Depart: depart,
		UILo: 0, UIHi: 1e15, State: r.State.State,
	})
	took := time.Since(start)
	if r.Status != http.StatusOK || r.State == nil {
		t.Fatalf("wide-interval continuation = %+v", r)
	}
	if took >= 100*time.Millisecond {
		t.Errorf("a continuation from the interval [0, 1e15] took %v, want < 100ms", took)
	}
}

func TestBatchStateRejections(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	cases := []struct {
		name string
		q    batchQuery
		want string
	}{
		{"rd", batchQuery{Path: path, Depart: depart, Method: "rd", UILo: depart, UIHi: depart},
			"cannot be evaluated segment by segment"},
		{"inverted ui", batchQuery{Path: path, Depart: depart, UILo: depart + 60, UIHi: depart},
			"inverted departure interval"},
		{"garbage state", batchQuery{Path: path, Depart: depart, UILo: depart, UIHi: depart,
			State: []byte("not a pstate dump")}, "unsupported partial state"},
		{"first not point", batchQuery{Path: path, Depart: depart, UILo: depart, UIHi: depart + 60},
			"point interval"},
	}
	for _, tc := range cases {
		tc.q.Kind = "state"
		r := postBatchEntry(t, ts.URL, tc.q)
		if r.Status != http.StatusBadRequest && r.Status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 4xx", tc.name, r.Status)
			continue
		}
		if !strings.Contains(r.Error, tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, r.Error, tc.want)
		}
	}

	// An unknown batch kind must advertise the state kind.
	if got := postBatchEntry(t, ts.URL, batchQuery{Kind: "nonsense"}).Error; !strings.Contains(got, "state") {
		t.Errorf("unknown-kind error %q does not mention the state kind", got)
	}

	// The batch entry is the only door: there is no /v1/state endpoint.
	if code := postJSON(t, ts.URL+"/v1/state", batchQuery{Path: path, Depart: depart, UILo: depart, UIHi: depart}, nil); code != http.StatusNotFound {
		t.Errorf("POST /v1/state = %d, want 404", code)
	}
}

// TestMetricsEndpoint scrapes the Prometheus handler the daemon mounts
// on the pprof listener.
func TestMetricsEndpoint(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 4})
	apiSrv := httptest.NewServer(srv.Handler())
	defer apiSrv.Close()
	metrics := httptest.NewServer(srv.Metrics())
	defer metrics.Close()

	// Serve one query so the counters move.
	path, depart := densePath(t, sys)
	if code := postJSON(t, apiSrv.URL+"/v1/distribution",
		distributionRequest{Path: path, Depart: depart}, nil); code != http.StatusOK {
		t.Fatalf("distribution = %d", code)
	}

	resp, err := http.Get(metrics.URL)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"pathcost_requests_served_total 1",
		"pathcost_requests_shed_total 0",
		"pathcost_max_in_flight 4",
		"pathcost_queued 0",
		"pathcost_uptime_seconds",
		"# TYPE pathcost_requests_served_total counter",
		"# TYPE pathcost_max_in_flight gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	post, err := http.Post(metrics.URL, "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

// TestLoadShedding saturates the evaluation gate and its waiter queue,
// then checks the next request is answered 429 + Retry-After instead
// of queuing behind them.
func TestLoadShedding(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The waiter is a route query: routing always takes an evaluation
	// slot directly, where a distribution query on the shared test
	// system could be answered from its query cache without queuing.
	src, dst, budget := routePair(t, sys)
	req := routeRequest{Source: src, Dest: dst, Depart: 8 * 3600, Budget: budget}

	// Occupy the only evaluation slot directly, then park one request
	// as the queue's only permitted waiter.
	srv.gate.Acquire(context.Background())
	waiter := make(chan int, 1)
	go func() {
		waiter <- postJSON(t, ts.URL+"/v1/route", req, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.Queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request queued behind the held slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: this request must be shed.
	hr, err := http.Post(ts.URL+"/v1/distribution", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded server answered %d, want 429", hr.StatusCode)
	}
	if hr.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", hr.Header.Get("Retry-After"))
	}

	// Release the slot: the parked waiter must still complete normally —
	// shedding rejects new arrivals, never queued ones.
	srv.gate.Release()
	if code := <-waiter; code != http.StatusOK {
		t.Fatalf("queued request = %d after slot release, want 200", code)
	}
	if got := srv.gate.Shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Shed != 1 || stats.MaxQueue != 1 {
		t.Fatalf("stats shed=%d max_queue=%d, want 1/1", stats.Shed, stats.MaxQueue)
	}
}

// TestStatsIngestGating: a query-only server must not advertise the
// ingest/epoch lifecycle it refuses to feed (regression: these blocks
// used to leak into /v1/stats with -ingest off).
func TestStatsIngestGating(t *testing.T) {
	sys := testSystem(t)

	off := httptest.NewServer(New(sys, Config{}).Handler())
	defer off.Close()
	var stats statsResponse
	if code := getJSON(t, off.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Ingest != nil || stats.Epoch != nil {
		t.Fatalf("ingest-off stats advertise the update pipeline: ingest=%+v epoch=%+v",
			stats.Ingest, stats.Epoch)
	}

	on := httptest.NewServer(New(sys, Config{EnableIngest: true}).Handler())
	defer on.Close()
	var stats2 statsResponse
	if code := getJSON(t, on.URL+"/v1/stats", &stats2); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats2.Ingest == nil || stats2.Epoch == nil {
		t.Fatalf("ingest-on stats omit the update pipeline: ingest=%+v epoch=%+v",
			stats2.Ingest, stats2.Epoch)
	}
}
