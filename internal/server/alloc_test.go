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

// decompHitAllocBudget bounds a cache hit at the second level: a
// departure the exact level has not seen, whose decomposition an
// earlier departure picked. On top of a hit's reader it chooses the
// decomposition, in pooled storage, and stores the answer at the exact
// level under the new departure: the key string and the LRU entry.
// Measured 3.
const decompHitAllocBudget = 3

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
	return servedAllocs(t, sys, path, func(int) []byte { return payload })
}

// servedAllocs serves payload(0) to path once and then measures the
// allocations of serving payload(1), payload(2), ..., each of which
// the cache must answer without computing, in the bytes the first
// answer has. It skips under the race detector (see hitAllocs).
func servedAllocs(t *testing.T, sys *pathcost.System, path string, payload func(i int) []byte) float64 {
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
		Body: &body,
	}
	served := 0
	serve := func() {
		clear(w.hdr)
		w.code, w.body = 0, w.body[:0]
		p := payload(served)
		served++
		body.Reset(p)
		req.ContentLength = int64(len(p))
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

// TestDecompositionHitAllocs gates a hit at the cache's second level:
// every request departs at a second the exact level has not seen, in
// a stretch where the path picks the variables it picks at 08:00.
func TestDecompositionHitAllocs(t *testing.T) {
	sys := hitSystem(t)
	sys.EnableQueryCache(1024)
	rnd := rand.New(rand.NewSource(5))
	p, err := sys.RandomQueryPath(23, rnd.Intn)
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) float64 { return 8*3600 + float64(i)/4 }
	same := 0
	for first, _ := sys.PathDistribution(p, at(0), pathcost.OD); same < 400; same++ {
		if res, _ := sys.PathDistribution(p, at(same), pathcost.OD); res != first {
			break
		}
	}
	if same < 400 {
		t.Fatalf("the path's answer moved %v s after 08:00: pick another path", at(same)-at(0))
	}
	sys.EnableQueryCache(1024) // empty again: every departure below is new to the exact level
	payloads := make([][]byte, 0, same)
	for i := range same {
		b, err := json.Marshal(distributionRequest{Path: api.EdgeIDs(p), Depart: at(i)})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	n := servedAllocs(t, sys, "/v1/distribution", func(i int) []byte { return payloads[i] })
	if n > decompHitAllocBudget {
		t.Fatalf("a second-level cache hit of %d edges allocates %v times, budget %d", len(p), n, decompHitAllocBudget)
	}
	t.Logf("second-level cache hit, POST /v1/distribution, %d edges: %v allocations", len(p), n)
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
