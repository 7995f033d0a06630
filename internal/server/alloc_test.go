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
// allocate between ServeHTTP's entry and return: a hit does no
// evaluation, so every allocation is chassis — the request struct and
// its path, the validated Path, the cache key, the answer and its
// buckets. Measured 8 (41 before the shared wire codec); the budget
// leaves room for a Go release to move the ServeMux by one or two, and
// none for a reflection walk or a per-edge Fprintf to come back.
const cacheHitAllocBudget = 12

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

func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableQueryCache(64)
	rnd := rand.New(rand.NewSource(5))
	p, err := sys.RandomQueryPath(23, rnd.Intn)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(distributionRequest{Path: api.EdgeIDs(p), Depart: 8 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sys, Config{}).Handler()
	w := &reusableWriter{hdr: make(http.Header)}
	var body resettableBody
	req := &http.Request{
		Method: http.MethodPost, URL: &url.URL{Path: "/v1/distribution"}, RequestURI: "/v1/distribution",
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
	serve() // the miss that fills the cache
	first := bytes.Clone(w.body)
	n := testing.AllocsPerRun(200, serve)
	if st, _ := sys.QueryCacheStats(); st.Hits < 200 {
		t.Fatalf("only %d cache hits: the gate is not measuring the hit path", st.Hits)
	}
	if !bytes.Equal(w.body, first) {
		t.Fatalf("a hit answered\n%s\nthe miss answered\n%s", w.body, first)
	}
	if n > cacheHitAllocBudget {
		t.Fatalf("a cache-hit POST /v1/distribution of %d edges allocates %v times, budget %d", len(p), n, cacheHitAllocBudget)
	}
	t.Logf("cache-hit POST /v1/distribution, %d edges: %v allocations", len(p), n)
}
