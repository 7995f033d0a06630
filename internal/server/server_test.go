package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/graph"
)

var (
	sysOnce sync.Once
	sysInst *pathcost.System
	sysErr  error
)

// testSystem trains one shared small system for the server tests.
func testSystem(t testing.TB) *pathcost.System {
	t.Helper()
	sysOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		sysInst, sysErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 11, Params: params,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// densePath returns a trajectory-backed path and an in-interval
// departure for distribution queries.
func densePath(t testing.TB, sys *pathcost.System) ([]int64, float64) {
	t.Helper()
	for _, card := range []int{4, 3, 2} {
		if dense := sys.DensePaths(card, 10); len(dense) > 0 {
			lo, _ := sys.Params.IntervalBounds(dense[0].Interval)
			ids := make([]int64, len(dense[0].Path))
			for i, e := range dense[0].Path {
				ids[i] = int64(e)
			}
			return ids, lo + 1
		}
	}
	t.Fatal("no dense paths in test workload")
	return nil, 0
}

// routePair returns a reachable source/dest pair and a generous budget.
func routePair(t testing.TB, sys *pathcost.System) (src, dst int64, budget float64) {
	t.Helper()
	s := pathcost.VertexID(sys.Graph.NumVertices() / 3)
	dists := sys.Graph.ShortestDistances(s, graph.FreeFlowWeight)
	best := 0.0
	d := pathcost.VertexID(-1)
	for v, dd := range dists {
		if pathcost.VertexID(v) != s && dd > best && dd < 600 {
			best = dd
			d = pathcost.VertexID(v)
		}
	}
	if d < 0 {
		t.Fatal("no reachable routing destination")
	}
	return int64(s), int64(d), best * 2
}

// postJSON POSTs body to url and decodes the JSON response into out.
// Failures are reported with Errorf (returning -1), not Fatalf, so
// the helper is safe to call from client goroutines.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshaling %s request: %v", url, err)
		return -1
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return -1
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("reading %s response: %v", url, err)
		return -1
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Errorf("decoding %s response %q: %v", url, data, err)
			return -1
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return -1
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("decoding %s: %v", url, err)
			return -1
		}
	}
	return resp.StatusCode
}

// TestServerSmoke drives every endpoint of a daemon serving a
// synthesized model — the httptest equivalent of a pathcostd session.
func TestServerSmoke(t *testing.T) {
	sys := testSystem(t)
	sys.EnableQueryCache(256)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}

	path, depart := densePath(t, sys)

	var dist distributionResponse
	code := postJSON(t, ts.URL+"/v1/distribution",
		distributionRequest{Path: path, Depart: depart, Method: "od", Budget: 3600}, &dist)
	if code != http.StatusOK {
		t.Fatalf("distribution = %d", code)
	}
	if dist.Method != "OD" || dist.MeanS <= 0 || len(dist.Buckets) == 0 {
		t.Fatalf("distribution response malformed: %+v", dist)
	}
	if dist.ProbWithin == nil || *dist.ProbWithin < 0 || *dist.ProbWithin > 1+1e-9 {
		t.Fatalf("prob_within = %v, want in [0,1]", dist.ProbWithin)
	}
	if dist.P10S > dist.P50S || dist.P50S > dist.P90S {
		t.Fatalf("quantiles out of order: %+v", dist)
	}

	// Same query again: must hit the cache (shared result, same numbers).
	var dist2 distributionResponse
	if code := postJSON(t, ts.URL+"/v1/distribution",
		distributionRequest{Path: path, Depart: depart}, &dist2); code != http.StatusOK {
		t.Fatalf("repeat distribution = %d", code)
	}
	if dist2.MeanS != dist.MeanS {
		t.Fatalf("cached mean %v != first mean %v", dist2.MeanS, dist.MeanS)
	}

	src, dst, budget := routePair(t, sys)
	var route routeResponse
	code = postJSON(t, ts.URL+"/v1/route",
		routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}, &route)
	if code != http.StatusOK {
		t.Fatalf("route = %d", code)
	}
	if len(route.Path) == 0 || route.Prob < 0 || route.Prob > 1+1e-9 {
		t.Fatalf("route response malformed: %+v", route)
	}

	var topk topkResponse
	code = postJSON(t, ts.URL+"/v1/topk",
		topkRequest{RouteRequest: routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}, K: 2}, &topk)
	if code != http.StatusOK {
		t.Fatalf("topk = %d", code)
	}
	if len(topk.Routes) == 0 || len(topk.Routes) > 2 {
		t.Fatalf("topk returned %d routes, want 1..2", len(topk.Routes))
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Edges != sys.Graph.NumEdges() || stats.Variables == 0 {
		t.Fatalf("stats malformed: %+v", stats)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Fatalf("stats should report the enabled cache with ≥1 hit: %+v", stats.Cache)
	}
	if stats.MaxInFlight != 4 {
		t.Fatalf("max_in_flight = %d, want 4", stats.MaxInFlight)
	}
}

// Validation failures must be 400s with a JSON error, never 500s.
func TestServerValidation(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown method", "/v1/distribution",
			distributionRequest{Path: path, Depart: depart, Method: "XX"}, http.StatusBadRequest},
		{"empty path", "/v1/distribution",
			distributionRequest{Depart: depart}, http.StatusBadRequest},
		{"edge out of range", "/v1/distribution",
			distributionRequest{Path: []int64{int64(sys.Graph.NumEdges()) + 5}, Depart: depart}, http.StatusBadRequest},
		{"negative depart", "/v1/distribution",
			distributionRequest{Path: path, Depart: -1}, http.StatusBadRequest},
		{"source equals dest", "/v1/route",
			routeRequest{Source: src, Dest: src, Depart: depart, Budget: budget}, http.StatusBadRequest},
		{"vertex out of range", "/v1/route",
			routeRequest{Source: src, Dest: int64(sys.Graph.NumVertices()) + 1, Depart: depart, Budget: budget}, http.StatusBadRequest},
		{"non-positive budget", "/v1/route",
			routeRequest{Source: src, Dest: dst, Depart: depart}, http.StatusBadRequest},
		{"k too small", "/v1/topk",
			topkRequest{RouteRequest: routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}, K: 0}, http.StatusBadRequest},
	}
	for _, c := range cases {
		var e errorResponse
		if code := postJSON(t, ts.URL+c.url, c.body, &e); code != c.want {
			t.Errorf("%s: status %d, want %d (error %q)", c.name, code, c.want, e.Error)
		} else if e.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}

	// Disconnected edge pair: structurally valid ids, not a path.
	g := sys.Graph
	var a, b int64 = -1, -1
	for i := 0; i < g.NumEdges() && a < 0; i++ {
		for j := 0; j < g.NumEdges(); j++ {
			if i != j && !g.Adjacent(pathcost.EdgeID(i), pathcost.EdgeID(j)) {
				a, b = int64(i), int64(j)
				break
			}
		}
	}
	if a >= 0 {
		var e errorResponse
		if code := postJSON(t, ts.URL+"/v1/distribution",
			distributionRequest{Path: []int64{a, b}, Depart: depart}, &e); code != http.StatusBadRequest {
			t.Errorf("disconnected path: status %d, want 400", code)
		}
	}

	// Wrong verb.
	resp, err := http.Get(ts.URL + "/v1/distribution")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/distribution = %d, want 405", resp.StatusCode)
	}
}

// TestUnencodableAnswerIs500 is the server's half of the regression
// test for the empty-body 200: a NaN that slipped into an answer used
// to be a 200 status line followed by nothing, because the header went
// out before the encoder refused. It is a counted 500 with the usual
// envelope, for a single answer and inside a batch.
func TestUnencodableAnswerIs500(t *testing.T) {
	srv := New(testSystem(t), Config{})
	bad := &distributionResponse{Method: "OD", Buckets: []api.Bucket{{Lo: 1, Hi: 2, Pr: math.NaN()}}}
	for _, write := range []func(http.ResponseWriter){
		func(w http.ResponseWriter) { srv.gate.Answer(w, http.StatusOK, "", bad) },
		func(w http.ResponseWriter) {
			srv.gate.Write(w, http.StatusOK, batchResponse{Results: []batchResult{{Kind: "distribution", Status: 200, Distribution: bad}}})
		},
	} {
		rejected := srv.gate.Rejected.Load()
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != "{\"error\":\"internal error during computation\"}\n" {
			t.Fatalf("answered %d %q, want the 500 envelope", rec.Code, rec.Body.String())
		}
		if s, r := srv.gate.Served.Load(), srv.gate.Rejected.Load(); s != 0 || r != rejected+1 {
			t.Fatalf("counted served %d rejected %d, want 0 and %d", s, r, rejected+1)
		}
	}
}

// TestServerConcurrentRequests hammers the daemon from many clients
// with a tiny in-flight bound; run under -race this also proves the
// handlers' memory safety.
func TestServerConcurrentRequests(t *testing.T) {
	sys := testSystem(t)
	sys.EnableQueryCache(64)
	srv := New(sys, Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				var dist distributionResponse
				code := postJSON(t, ts.URL+"/v1/distribution",
					distributionRequest{Path: path, Depart: depart}, &dist)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d iter %d: status %d", i, n, code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
