package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/url"
	"testing"

	pathcost "repro"
	"repro/internal/api"
)

// cacheHitAllocBudget bounds what a whole-answer cache hit may
// allocate between ServeHTTP's entry and return. A hit does no
// evaluation, and the request, its ids, the validated path, the cache
// key and the answer all live in pooled or stack storage, so what is
// left is http.MaxBytesReader's reader, which sets the connection-close
// behaviour an oversize body gets. Measured 1; 8 while the request
// struct and its ids, the path, the key (two strings) and the answer
// and its copied buckets were fresh, 41 before the shared wire codec.
const cacheHitAllocBudget = 1

// batchHitAllocBudget bounds one POST /v1/batch of batchHitEntries
// cached distribution entries: the entries, results, answers and the
// envelope are the request's pooled Scratch, so a batch of hits costs
// what one hit costs. Measured 1.
const (
	batchHitAllocBudget = 1
	batchHitEntries     = 16
)

// reusableWriter is an http.ResponseWriter that costs nothing itself.
type reusableWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *reusableWriter) Header() http.Header { return w.hdr }
func (w *reusableWriter) WriteHeader(c int)   { w.code = c }
func (w *reusableWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// resettableBody is a request body that can be sent again.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// hitAllocs serves payload to path once (the misses that fill the
// cache) and then measures the allocations of serving it again, which
// must answer the same bytes. It skips under the race detector, which
// makes sync.Pool drop what it holds at random.
func hitAllocs(t *testing.T, sys *pathcost.System, path string, payload []byte) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	h := New(sys, Config{}).Handler()
	w := &reusableWriter{hdr: make(http.Header)}
	var body resettableBody
	req := &http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: path}, RequestURI: path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Host: "test",
		Body: &body, ContentLength: int64(len(payload)),
	}
	serve := func() {
		clear(w.hdr)
		w.code, w.body = 0, w.body[:0]
		body.Reset(payload)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	serve() // the misses that fill the cache
	first := bytes.Clone(w.body)
	before, _ := sys.QueryCacheStats()
	n := testing.AllocsPerRun(200, serve)
	if st, _ := sys.QueryCacheStats(); st.Misses != before.Misses || st.Hits < before.Hits+200 {
		t.Fatalf("cache moved from %+v to %+v: the gate is not measuring the hit path", before, st)
	}
	if !bytes.Equal(w.body, first) {
		t.Fatalf("a hit answered\n%s\nthe miss answered\n%s", w.body, first)
	}
	return n
}

// hitSystem is a small served system with the query cache on.
func hitSystem(t *testing.T) *pathcost.System {
	t.Helper()
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableQueryCache(64)
	return sys
}

func TestCacheHitAllocs(t *testing.T) {
	sys := hitSystem(t)
	rnd := rand.New(rand.NewSource(5))
	p, err := sys.RandomQueryPath(23, rnd.Intn)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(distributionRequest{Path: api.EdgeIDs(p), Depart: 8 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	n := hitAllocs(t, sys, "/v1/distribution", payload)
	if n > cacheHitAllocBudget {
		t.Fatalf("a cache-hit POST /v1/distribution of %d edges allocates %v times, budget %d", len(p), n, cacheHitAllocBudget)
	}
	t.Logf("cache-hit POST /v1/distribution, %d edges: %v allocations", len(p), n)
}

// TestBatchHitAllocs gates a batch of cached entries: distinct paths
// of 5–20 edges, some with a budget, so each entry writes its own
// answer and prob_within.
func TestBatchHitAllocs(t *testing.T) {
	sys := hitSystem(t)
	rnd := rand.New(rand.NewSource(6))
	var req batchRequest
	for len(req.Queries) < batchHitEntries {
		p, err := sys.RandomQueryPath(5+rnd.Intn(16), rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		q := batchQuery{Path: api.EdgeIDs(p), Depart: 8 * 3600}
		if len(req.Queries)%3 == 0 {
			q.Budget = 900
		}
		req.Queries = append(req.Queries, q)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	n := hitAllocs(t, sys, "/v1/batch", payload)
	if n > batchHitAllocBudget {
		t.Fatalf("a POST /v1/batch of %d cached entries allocates %v times, budget %d", batchHitEntries, n, batchHitAllocBudget)
	}
	t.Logf("POST /v1/batch of %d cached entries: %v allocations", batchHitEntries, n)
}
