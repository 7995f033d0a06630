package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/api"
)

// TestBatchSmoke answers a mixed batch — distribution, route, topk
// and one invalid entry — and checks the per-entry status contract.
func TestBatchSmoke(t *testing.T) {
	sys := testSystem(t)
	sys.EnableConvMemo(4096)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)

	req := batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600},
		{Path: path, Depart: depart}, // kind omitted = distribution
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
		{Kind: "topk", Source: src, Dest: dst, Depart: depart, Budget: budget, K: 2},
		{Kind: "route", Source: src, Dest: src, Depart: depart, Budget: budget}, // invalid: src == dst
		{Kind: "teleport"}, // invalid kind
	}}
	var resp batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if len(resp.Results) != len(req.Queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(req.Queries))
	}
	r := resp.Results
	if r[0].Status != http.StatusOK || r[0].Distribution == nil || r[0].Distribution.MeanS <= 0 {
		t.Fatalf("entry 0 malformed: %+v", r[0])
	}
	if r[0].Distribution.ProbWithin == nil {
		t.Fatalf("entry 0 missing prob_within: %+v", r[0].Distribution)
	}
	if r[1].Status != http.StatusOK || r[1].Kind != "distribution" || r[1].Distribution == nil {
		t.Fatalf("entry 1 (defaulted kind) malformed: %+v", r[1])
	}
	if r[2].Status != http.StatusOK || r[2].Route == nil || len(r[2].Route.Path) == 0 {
		t.Fatalf("entry 2 malformed: %+v", r[2])
	}
	if r[3].Status != http.StatusOK || r[3].TopK == nil || len(r[3].TopK.Routes) == 0 {
		t.Fatalf("entry 3 malformed: %+v", r[3])
	}
	if r[4].Status != http.StatusBadRequest || r[4].Error == "" || r[4].Route != nil {
		t.Fatalf("entry 4 should be a per-entry 400: %+v", r[4])
	}
	if r[5].Status != http.StatusBadRequest || r[5].Error == "" {
		t.Fatalf("entry 5 should reject the unknown kind: %+v", r[5])
	}
}

// TestBatchMatchesSingleQueries proves a batch answers exactly what
// the standalone endpoints answer, including with the convolution
// memo enabled (prefix reuse across the batch must not change
// results).
func TestBatchMatchesSingleQueries(t *testing.T) {
	sys := testSystem(t)
	sys.EnableConvMemo(4096)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)

	var single distributionResponse
	if code := postJSON(t, ts.URL+"/v1/distribution",
		distributionRequest{Path: path, Depart: depart}, &single); code != http.StatusOK {
		t.Fatalf("single distribution = %d", code)
	}
	var singleRoute routeResponse
	if code := postJSON(t, ts.URL+"/v1/route",
		routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}, &singleRoute); code != http.StatusOK {
		t.Fatalf("single route = %d", code)
	}

	var resp batchResponse
	req := batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
	}}
	if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	bd := resp.Results[0].Distribution
	if bd == nil || bd.MeanS != single.MeanS || bd.P50S != single.P50S || len(bd.Buckets) != len(single.Buckets) {
		t.Fatalf("batch distribution differs from single: %+v vs %+v", bd, single)
	}
	for i := range bd.Buckets {
		if bd.Buckets[i] != single.Buckets[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, bd.Buckets[i], single.Buckets[i])
		}
	}
	br := resp.Results[1].Route
	if br == nil || br.Prob != singleRoute.Prob || len(br.Path) != len(singleRoute.Path) {
		t.Fatalf("batch route differs from single: %+v vs %+v", br, singleRoute)
	}
	for i := range br.Path {
		if br.Path[i] != singleRoute.Path[i] {
			t.Fatalf("route edge %d differs", i)
		}
	}
}

// TestBatchValidation pins the whole-batch 400 contract.
func TestBatchValidation(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var e errorResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
	over := batchRequest{Queries: make([]batchQuery, api.MaxBatch+1)}
	if code := postJSON(t, ts.URL+"/v1/batch", over, &e); code != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400 (%s)", code, e.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch = %d, want 405", resp.StatusCode)
	}
}

// TestBatchConcurrentClients hammers /v1/batch from many clients over
// a tiny in-flight bound; under -race this proves concurrent batches,
// semaphore accounting and memo sharing are safe together.
func TestBatchConcurrentClients(t *testing.T) {
	sys := testSystem(t)
	sys.EnableQueryCache(128)
	sys.EnableConvMemo(4096)
	srv := New(sys, Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)
	req := batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
		{Kind: "topk", Source: src, Dest: dst, Depart: depart, Budget: budget, K: 2},
	}}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 3; n++ {
				var resp batchResponse
				code := postJSON(t, ts.URL+"/v1/batch", req, &resp)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d iter %d: status %d", i, n, code)
					return
				}
				for j, res := range resp.Results {
					if res.Status != http.StatusOK {
						errs <- fmt.Errorf("client %d iter %d entry %d: status %d (%s)", i, n, j, res.Status, res.Error)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The memo must have been exercised by the overlapping entries.
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Memo == nil || stats.Memo.Entries == 0 {
		t.Fatalf("stats should report the enabled memo with entries: %+v", stats.Memo)
	}
}

// TestBatchEntryPanicIsThatEntrys500 pins what a panicking evaluation
// does to a batch, of one entry or of several answered in order: the
// entry answers 500 inside a 200 envelope, its MaxInFlight slot is
// released by the eval helper's defer, the entries after it are
// untouched, and the server keeps serving. The panic is injected by
// serving a private system whose model has lost its road network.
func TestBatchEntryPanicIsThatEntrys500(t *testing.T) {
	srv := New(brokenSystem(t), Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	depart := 8 * 3600.0
	state := batchQuery{Kind: "state", Path: []int64{0}, Depart: depart, UILo: depart, UIHi: depart}

	for _, queries := range [][]batchQuery{
		{state},
		{state, {Kind: "teleport"}, state},
	} {
		var resp batchResponse
		if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: queries}, &resp); code != http.StatusOK {
			t.Fatalf("%d-entry batch = %d, want the 200 envelope", len(queries), code)
		}
		if len(resp.Results) != len(queries) {
			t.Fatalf("%d results for %d queries", len(resp.Results), len(queries))
		}
		for i, r := range resp.Results {
			want := http.StatusInternalServerError
			if queries[i].Kind == "teleport" {
				want = http.StatusBadRequest
			}
			if r.Status != want || r.Error == "" || r.State != nil {
				t.Errorf("%d-entry batch, entry %d = %+v, want a bare %d", len(queries), i, r, want)
			}
		}
		if n := slotsHeld(srv.gate); n != 0 {
			t.Fatalf("%d-entry batch leaked %d evaluation slot(s)", len(queries), n)
		}
	}
}

// brokenSystem is a private system whose model has lost its road
// network, so every evaluation that passes validation panics. The
// recovered panics' stack traces are silenced for the test.
func brokenSystem(t *testing.T) *pathcost.System {
	t.Helper()
	broken, err := pathcost.Synthesize(pathcost.SynthesizeConfig{Preset: "test", Trips: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	broken.Hybrid().G = nil
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return broken
}

// TestSingleQueryPanicIs500 pins the same contract for single-query
// endpoints, which the chassis recovers once for both tiers: a
// panicking distribution or route evaluation answers the counted 500
// envelope, holds no slot, and the server answers the next request.
func TestSingleQueryPanicIs500(t *testing.T) {
	broken := brokenSystem(t)
	srv := New(broken, Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	depart := 8 * 3600.0
	src, dst, budget := routePair(t, broken)

	for round := 0; round < 2; round++ {
		for _, q := range []struct {
			url string
			req any
		}{
			{"/v1/distribution", distributionRequest{Path: []int64{0}, Depart: depart}},
			{"/v1/route", routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}},
		} {
			rejected := srv.gate.Rejected.Load()
			var e errorResponse
			if code := postJSON(t, ts.URL+q.url, q.req, &e); code != http.StatusInternalServerError ||
				e.Error != "internal error during computation" {
				t.Fatalf("round %d %s = %d %q, want the 500 envelope", round, q.url, code, e.Error)
			}
			if r := srv.gate.Rejected.Load(); r != rejected+1 {
				t.Fatalf("round %d %s counted %d rejected, want %d", round, q.url, r, rejected+1)
			}
			if n := slotsHeld(srv.gate); n != 0 {
				t.Fatalf("round %d %s leaked %d evaluation slot(s)", round, q.url, n)
			}
		}
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after the panics = %d", code)
	}
}

// TestBatchInlineAndFannedOutConcurrently mixes one-entry batches with
// four-entry batches from many clients at once; run under -race
// -count=10 it is the check that concurrent batches share nothing they
// should not. Every answer must equal the one-entry-at-a-time one.
func TestBatchInlineAndFannedOutConcurrently(t *testing.T) {
	sys := testSystem(t)
	srv := New(sys, Config{MaxInFlight: 3})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)
	cut := len(path) / 2
	entries := []batchQuery{
		{Kind: "state", Path: path[:cut], Depart: depart, UILo: depart, UIHi: depart},
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
		{Kind: "teleport"},
	}
	// The sequential reference, one entry at a time.
	want := make([]string, len(entries))
	for i, q := range entries {
		var resp batchResponse
		if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: []batchQuery{q}}, &resp); code != http.StatusOK {
			t.Fatalf("reference entry %d = %d", i, code)
		}
		want[i] = entryFingerprint(resp.Results[0])
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				// Odd clients send one-entry batches, even ones all four.
				idx := []int{(c + round) % len(entries)}
				if c%2 == 0 {
					idx = []int{0, 1, 2, 3}
				}
				req := batchRequest{}
				for _, i := range idx {
					req.Queries = append(req.Queries, entries[i])
				}
				var resp batchResponse
				if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK || len(resp.Results) != len(idx) {
					t.Errorf("client %d round %d: batch = %d with %d results", c, round, code, len(resp.Results))
					return
				}
				for j, i := range idx {
					if got := entryFingerprint(resp.Results[j]); got != want[i] {
						t.Errorf("client %d round %d entry %d:\n%s\nwant\n%s", c, round, i, got, want[i])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := slotsHeld(srv.gate); n != 0 {
		t.Fatalf("%d evaluation slot(s) still held after the last answer", n)
	}
}

// TestBatchOverlappingEntriesMatchSingleRequests pins a batch as its
// entries answered in order: distribution entries over one trunk — its
// prefixes, a duplicate, and an invalid-path entry that repeats the
// trunk's first edge after sharing every prefix — answer exactly what
// the same entries sent one at a time to /v1/distribution answer,
// status and body, with the memo on; and no evaluation slot is held
// afterwards.
func TestBatchOverlappingEntriesMatchSingleRequests(t *testing.T) {
	sys := testSystem(t)
	sys.EnableConvMemo(4096)
	// No query cache: it would answer the single requests from the
	// batch's results.
	sys.EnableQueryCache(0)
	srv := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	bad := append(append([]int64{}, path...), path[0])
	entries := []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600},
		{Kind: "distribution", Path: path[:len(path)-1], Depart: depart},
		{Kind: "distribution", Path: path[:2], Depart: depart, Method: "LB"},
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600}, // duplicate
		{Kind: "distribution", Path: bad, Depart: depart},
		{Kind: "distribution", Path: path[:min(3, len(path))], Depart: depart, Method: "HP"},
	}
	var resp batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: entries}, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if len(resp.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(resp.Results), len(entries))
	}
	for i, q := range entries {
		single := batchResult{Kind: "distribution"}
		var body json.RawMessage
		single.Status = postJSON(t, ts.URL+"/v1/distribution", distributionRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
		}, &body)
		if single.Status == http.StatusOK {
			single.Distribution = new(distributionResponse)
			if err := json.Unmarshal(body, single.Distribution); err != nil {
				t.Fatal(err)
			}
		} else {
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			single.Error = e.Error
		}
		if got, want := entryFingerprint(resp.Results[i]), entryFingerprint(single); got != want {
			t.Errorf("entry %d:\n%s\nsent alone:\n%s", i, got, want)
		}
	}
	if r := resp.Results[4]; r.Status != http.StatusBadRequest || r.Error == "" {
		t.Fatalf("the invalid-path entry should be a per-entry 400: %+v", r)
	}
	if n := slotsHeld(srv.gate); n != 0 {
		t.Fatalf("%d evaluation slot(s) still held after the batch", n)
	}
}

// entryFingerprint renders a batch result with its wall-clock fields
// zeroed, for equality checks.
func entryFingerprint(r batchResult) string {
	if r.Distribution != nil {
		d := *r.Distribution
		d.EvalUS = 0
		r.Distribution = &d
	}
	if r.Route != nil {
		rt := *r.Route
		rt.EvalUS = 0
		r.Route = &rt
	}
	b, _ := json.Marshal(r)
	return string(b)
}
