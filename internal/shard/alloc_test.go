package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// Allocation budgets of one whole sharded request, coordinator and
// shards together, over memTransport: what the tiers' own code
// allocates from the coordinator's ServeHTTP to its return. Each is
// the measured count.
//
// relayAllocBudget is a distribution whose path crosses two region
// cuts: three relay legs, one wave each. Measured 40. A leg costs 8
// of them — its timeout context (4), its request, its fenced body, its
// goroutine, and the shard's http.MaxBytesReader — and the rest is the
// coordinator's own body reader and core's evaluation of the three
// segments and of the final state. 171 before a relay call was pooled
// and driven straight through the RoundTripper.
//
// proxyAllocBudget is a distribution inside one region, proxied whole:
// one leg, whose answer carries a distribution and so is decoded by
// encoding/json. Measured 29; 69 before the pooled call.
const (
	relayAllocBudget = 40
	proxyAllocBudget = 29
)

// memShard is one shard server reached in process, with the writer and
// response its legs reuse (the legs here are one at a time).
type memShard struct {
	h    http.Handler
	w    reusableWriter
	body resettableBody
	resp http.Response
}

// memTransport is a RoundTripper that serves a leg with the handler of
// the shard its host names, allocating nothing of its own.
type memTransport map[string]*memShard

func (t memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t[req.URL.Host]
	clear(s.w.hdr)
	s.w.code, s.w.body = http.StatusOK, s.w.body[:0]
	s.h.ServeHTTP(&s.w, req)
	req.Body.Close()
	s.body.Reset(s.w.body)
	s.resp = http.Response{
		StatusCode: s.w.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: s.w.hdr, Body: &s.body, ContentLength: int64(len(s.w.body)), Request: req,
	}
	return &s.resp, nil
}

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

// resettableBody is a body that can be read again.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// TestShardedRequestAllocs holds one whole sharded request to its
// allocation budget. It skips under the race detector.
func TestShardedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it holds at random")
	}
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	split, err := SplitModel(sys, part)
	if err != nil {
		t.Fatal(err)
	}
	tr := memTransport{}
	cfg := Config{Transport: tr, ProbeInterval: -1, HedgeAfter: time.Hour}
	for r, ss := range split.Shards {
		host := "shard" + string(rune('0'+r))
		tr[host] = &memShard{h: server.New(ss, server.Config{}).Handler(), w: reusableWriter{hdr: http.Header{}}}
		cfg.Shards = append(cfg.Shards, "http://"+host)
	}
	coord, err := New(sys.Graph, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()

	var relay, proxy []int64
	for _, p := range queryPaths(t, sys, 2000, 41) {
		switch n := len(part.SegmentPath(sys.Graph, p)); {
		case n == 3 && relay == nil:
			relay = edgeIDs(p)
		case n == 1 && len(p) > 3 && proxy == nil:
			proxy = edgeIDs(p)
		}
	}
	if relay == nil || proxy == nil {
		t.Fatal("no 3-segment or no single-region path among the samples")
	}
	for _, c := range []struct {
		name   string
		path   []int64
		budget float64
	}{
		{"a 3-segment relayed distribution", relay, relayAllocBudget},
		{"a proxied single-region distribution", proxy, proxyAllocBudget},
	} {
		payload, _ := json.Marshal(api.DistributionRequest{Path: c.path, Depart: 8 * 3600, Method: "OD"})
		w := &reusableWriter{hdr: http.Header{}}
		var body resettableBody
		req := &http.Request{
			Method: http.MethodPost, URL: &url.URL{Path: "/v1/distribution"}, RequestURI: "/v1/distribution",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}}, Host: "coordinator",
			Body: &body, ContentLength: int64(len(payload)),
		}
		n := testing.AllocsPerRun(50, func() {
			clear(w.hdr)
			w.code, w.body = http.StatusOK, w.body[:0]
			body.Reset(payload)
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.name, w.code, w.body)
			}
		})
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.name, n, c.budget)
		}
	}
}
