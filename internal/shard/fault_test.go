package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// faultTransport injects failures per shard host: "kill" refuses the
// connection, "hang" blocks until the request context dies, "garbage"
// answers 200 with an undecodable body, "empty-state" lets the shard
// answer and then blanks the state of every state entry ("state": ""),
// "corrupt-state" flips the first (magic) byte of every such state,
// "shed" answers every /v1/batch call 429 + Retry-After the way a full
// shard's api.Gate does. "hang-once"/"kill-once" fault only the first call to the host, so the
// hedged second leg succeeds.
type faultTransport struct {
	mu    sync.Mutex
	modes map[string]string // host -> mode
	hits  map[string]int
}

func newFaultTransport() *faultTransport {
	return &faultTransport{modes: map[string]string{}, hits: map[string]int{}}
}

func (ft *faultTransport) set(u, mode string) {
	pu, err := url.Parse(u)
	if err != nil {
		panic(err)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if mode == "" {
		delete(ft.modes, pu.Host)
		delete(ft.hits, pu.Host)
		return
	}
	ft.modes[pu.Host] = mode
	ft.hits[pu.Host] = 0
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	mode := ft.modes[req.URL.Host]
	ft.hits[req.URL.Host]++
	first := ft.hits[req.URL.Host] == 1
	ft.mu.Unlock()
	switch {
	case mode == "kill" || (mode == "kill-once" && first):
		return nil, fmt.Errorf("dial tcp %s: connection refused (injected)", req.URL.Host)
	case mode == "hang" || (mode == "hang-once" && first):
		<-req.Context().Done()
		return nil, req.Context().Err()
	case mode == "garbage":
		return &http.Response{
			Status:     "200 OK",
			StatusCode: http.StatusOK,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/html"}},
			Body:    io.NopCloser(strings.NewReader("<html>not json</html>")),
			Request: req,
		}, nil
	case mode == "empty-state":
		return rewriteStates(func(st *api.StateResult) { st.State = []byte{} })(http.DefaultTransport.RoundTrip(req))
	case mode == "corrupt-state":
		return rewriteStates(func(st *api.StateResult) {
			if len(st.State) > 0 {
				st.State[0] ^= 0xff
			}
		})(http.DefaultTransport.RoundTrip(req))
	case mode == "shed" && req.URL.Path == "/v1/batch":
		return &http.Response{
			Status:     "429 Too Many Requests",
			StatusCode: http.StatusTooManyRequests,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{
				"Content-Type": []string{"application/json"},
				"Retry-After":  []string{"1"},
			},
			Body:    io.NopCloser(strings.NewReader(`{"error":"server overloaded, retry later"}` + "\n")),
			Request: req,
		}, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// rewriteStates returns a rewrite of a shard's batch answer that
// applies edit to the state of every state entry, everything else as
// the shard sent it.
func rewriteStates(edit func(*api.StateResult)) func(*http.Response, error) (*http.Response, error) {
	return func(resp *http.Response, err error) (*http.Response, error) {
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var bresp api.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
			return nil, err
		}
		for i := range bresp.Results {
			if st := bresp.Results[i].State; st != nil {
				edit(st)
			}
		}
		body, err := json.Marshal(bresp)
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
		return resp, nil
	}
}

// faultFleet boots a 3-way fleet with an injectable transport and fast
// hedge/timeout settings.
func faultFleet(t *testing.T) (*fleet, *faultTransport) {
	t.Helper()
	ft := newFaultTransport()
	f := startFleet(t, 3, func(cfg *Config) {
		cfg.Transport = ft
		cfg.HedgeAfter = 25 * time.Millisecond
		cfg.Timeout = 2 * time.Second
	})
	return f, ft
}

// regionQueries builds one single-region distribution query per region
// that has a usable path, returning the batch and each entry's region.
func regionQueries(t *testing.T, f *fleet) ([]api.BatchQuery, []int) {
	t.Helper()
	sys := testSystem(t)
	byRegion := map[int][]int64{}
	for _, p := range queryPaths(t, sys, 300, 31) {
		segs := f.part.SegmentPath(sys.Graph, p)
		if len(segs) == 1 {
			if _, ok := byRegion[segs[0].Region]; !ok {
				byRegion[segs[0].Region] = edgeIDs(p)
			}
		}
	}
	if len(byRegion) < 2 {
		t.Fatalf("only %d regions have single-region paths", len(byRegion))
	}
	var queries []api.BatchQuery
	var regions []int
	for r := 0; r < f.part.K; r++ {
		path, ok := byRegion[r]
		if !ok {
			continue
		}
		queries = append(queries, api.BatchQuery{Kind: "distribution", Path: path, Depart: 8 * 3600})
		regions = append(regions, r)
	}
	return queries, regions
}

func postBatch(t *testing.T, url string, queries []api.BatchQuery) []api.BatchResult {
	t.Helper()
	code, body := postRaw(t, url+"/v1/batch", api.BatchRequest{Queries: queries})
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding batch: %v", err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(queries))
	}
	return resp.Results
}

// TestFaultIsolationAndRecovery kills, hangs, and garbles one shard
// mid-batch: its entries must fail 503 without poisoning siblings, and
// clearing the fault must restore full service with no unfencing step.
func TestFaultIsolationAndRecovery(t *testing.T) {
	f, ft := faultFleet(t)
	queries, regions := regionQueries(t, f)
	victim := regions[len(regions)-1]

	for _, mode := range []string{"kill", "garbage", "hang"} {
		t.Run(mode, func(t *testing.T) {
			ft.set(f.shardTS[victim].URL, mode)
			defer ft.set(f.shardTS[victim].URL, "")
			// The hang case takes ~Timeout (2s): both legs must sit out
			// their whole per-leg deadline before the entry can fail.
			results := postBatch(t, f.coordTS.URL, queries)
			for i, res := range results {
				if regions[i] == victim {
					if res.Status != http.StatusServiceUnavailable {
						t.Errorf("victim entry %d = %d (%s), want 503", i, res.Status, res.Error)
					}
					if !strings.Contains(res.Error, fmt.Sprintf("shard %d unavailable", victim)) {
						t.Errorf("victim entry error %q does not name the shard", res.Error)
					}
				} else if res.Status != http.StatusOK {
					t.Errorf("sibling entry %d (region %d) poisoned: %d (%s)",
						i, regions[i], res.Status, res.Error)
				}
			}
			if f.coord.shards[victim].healthy() {
				t.Error("victim still marked healthy after failed calls")
			}

			// Recovery: the fault is cleared and the very next call serves.
			// A single-replica group never starves itself: when every
			// breaker in a group is open the candidate set fails open, so
			// the sole replica is always tried and its first success
			// closes the breaker — no unfencing step.
			ft.set(f.shardTS[victim].URL, "")
			for i, res := range postBatch(t, f.coordTS.URL, queries) {
				if res.Status != http.StatusOK {
					t.Errorf("post-recovery entry %d = %d (%s)", i, res.Status, res.Error)
				}
				_ = i
			}
			if !f.coord.shards[victim].healthy() {
				t.Error("victim not marked healthy again after a served call")
			}
		})
	}
}

// TestHedgeRescuesSlowShard: only the first call to the shard hangs;
// the hedged second leg must answer within the same request.
func TestHedgeRescuesSlowShard(t *testing.T) {
	f, ft := faultFleet(t)
	queries, regions := regionQueries(t, f)
	victim := regions[0]
	before := f.coord.hedges.Load()

	ft.set(f.shardTS[victim].URL, "hang-once")
	defer ft.set(f.shardTS[victim].URL, "")
	start := time.Now()
	results := postBatch(t, f.coordTS.URL, queries[:1])
	if results[0].Status != http.StatusOK {
		t.Fatalf("hedged query = %d (%s), want 200", results[0].Status, results[0].Error)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("hedge did not race the hung leg: took %v", elapsed)
	}
	if f.coord.hedges.Load() == before {
		t.Fatal("hedge counter did not move")
	}
}

// TestHedgeRetriesFailedLegImmediately: a dead-socket first leg must
// trigger the retry at once, not after HedgeAfter.
func TestHedgeRetriesFailedLegImmediately(t *testing.T) {
	f, ft := faultFleet(t)
	queries, regions := regionQueries(t, f)
	victim := regions[0]

	ft.set(f.shardTS[victim].URL, "kill-once")
	defer ft.set(f.shardTS[victim].URL, "")
	results := postBatch(t, f.coordTS.URL, queries[:1])
	if results[0].Status != http.StatusOK {
		t.Fatalf("retried query = %d (%s), want 200", results[0].Status, results[0].Error)
	}
}

// TestCrossRegionQueryFailsCleanlyWhenRelayShardDies: a relayed
// distribution whose later segment lives on a dead shard must come
// back 503 — never a partial or wrong distribution.
func TestCrossRegionQueryFailsCleanlyWhenRelayShardDies(t *testing.T) {
	sys := testSystem(t)
	f, ft := faultFleet(t)
	p := crossRegionPath(t, f, sys)
	segs := f.part.SegmentPath(sys.Graph, p)
	victim := segs[len(segs)-1].Region

	ft.set(f.shardTS[victim].URL, "kill")
	defer ft.set(f.shardTS[victim].URL, "")
	code, body := postRaw(t, f.coordTS.URL+"/v1/distribution",
		api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("relay with dead shard = %d (%s), want 503", code, body)
	}

	ft.set(f.shardTS[victim].URL, "")
	code, _ = postRaw(t, f.coordTS.URL+"/v1/distribution",
		api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600})
	if code != http.StatusOK {
		t.Fatalf("relay after recovery = %d, want 200", code)
	}
}

// TestEmptyRelayedStateFailsTheEntry: a shard that answers a state
// entry 200 with an empty state must cost that entry a 502. Forwarded,
// the empty state would read as "first segment" to the next shard,
// which would restart the chain there — a wrong distribution whenever
// the departure interval still happens to be a point.
func TestEmptyRelayedStateFailsTheEntry(t *testing.T) {
	relayed, segs := relayWithFaultyFirstShard(t, "empty-state")
	victim := segs[0].Region
	if relayed.Status != http.StatusBadGateway || relayed.Distribution != nil ||
		!strings.Contains(relayed.Error, fmt.Sprintf("shard %d answered a state entry with an empty state", victim)) {
		t.Errorf("relayed entry = %d (%s), want a 502 naming shard %d's empty state", relayed.Status, relayed.Error, victim)
	}
}

// TestCorruptRelayedStateFailsTheEntry: a shard that answers a state
// entry 200 with a state the next shard cannot decode must cost that
// entry a 502 naming the refusing shard — not forward that shard's 400
// as the client's fault: the coordinator validated the query itself.
func TestCorruptRelayedStateFailsTheEntry(t *testing.T) {
	relayed, segs := relayWithFaultyFirstShard(t, "corrupt-state")
	refuser := segs[1].Region
	if relayed.Status != http.StatusBadGateway || relayed.Distribution != nil ||
		!strings.HasPrefix(relayed.Error, fmt.Sprintf("shard %d refused a relayed state entry: core: ", refuser)) {
		t.Errorf("relayed entry = %d (%s), want a 502 naming shard %d, which refused the state", relayed.Status, relayed.Error, refuser)
	}
}

// relayWithFaultyFirstShard sends one batch of single-region entries
// and one cross-region entry, with mode set on the shard that answers
// the cross-region entry's first segment. It checks that every
// single-region sibling still answers 200 and returns the relayed
// entry's result and its segments.
func relayWithFaultyFirstShard(t *testing.T, mode string) (api.BatchResult, []Segment) {
	t.Helper()
	sys := testSystem(t)
	f, ft := faultFleet(t)
	p := crossRegionPath(t, f, sys)
	segs := f.part.SegmentPath(sys.Graph, p)
	victim := segs[0].Region
	queries, _ := regionQueries(t, f)
	queries = append(queries, api.BatchQuery{Kind: "distribution", Path: edgeIDs(p), Depart: 8 * 3600})

	ft.set(f.shardTS[victim].URL, mode)
	defer ft.set(f.shardTS[victim].URL, "")
	results := postBatch(t, f.coordTS.URL, queries)
	for i, res := range results[:len(results)-1] {
		if res.Status != http.StatusOK {
			t.Errorf("%s: sibling entry %d poisoned: %d (%s)", mode, i, res.Status, res.Error)
		}
	}
	return results[len(results)-1], segs
}

// TestStatsAnswerWithoutWaitingOnHungShard: the coordinator's /v1/stats
// reports the epoch each region's last probe recorded and calls no
// shard, so a hung region cannot hold the page for the shard-call
// timeout. Region 0 is a stub reporting epoch 7, region 1 hangs,
// region 2 serves with ingestion off (no epoch block).
func TestStatsAnswerWithoutWaitingOnHungShard(t *testing.T) {
	f, ft := faultFleet(t)
	var stubHits sync.Map
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := stubHits.LoadOrStore(r.URL.Path, new(int))
		*n.(*int)++
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, `{"epoch":{"seq":7}}`)
	}))
	defer stub.Close()
	ft.set(f.shardTS[1].URL, "hang")
	coord, err := New(testSystem(t).Graph, f.part, Config{
		Shards:        []string{stub.URL, f.shardTS[1].URL, f.shardTS[2].URL},
		Transport:     ft,
		Timeout:       2 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2} {
		coord.probeOnce(t.Context(), coord.shards[r].replicas[0])
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards []struct {
			Healthy bool    `json:"healthy"`
			Epoch   *uint64 `json:"epoch"`
		} `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
		t.Fatalf("/v1/stats took %v with region 1 hung, want < 500ms", elapsed)
	}
	if err != nil || resp.StatusCode != http.StatusOK || len(stats.Shards) != 3 {
		t.Fatalf("/v1/stats = %d, %+v (%v)", resp.StatusCode, stats, err)
	}
	if e := stats.Shards[0].Epoch; e == nil || *e != 7 || !stats.Shards[0].Healthy {
		t.Errorf("region 0: healthy %v epoch %v, want the probed 7", stats.Shards[0].Healthy, e)
	}
	if e := stats.Shards[1].Epoch; e != nil {
		t.Errorf("region 1 was never probed, yet reports epoch %d", *e)
	}
	if e := stats.Shards[2].Epoch; e != nil || !stats.Shards[2].Healthy {
		t.Errorf("region 2: healthy %v epoch %v, want healthy with no epoch (ingestion off)", stats.Shards[2].Healthy, e)
	}
	n, _ := stubHits.Load("/v1/stats")
	if n == nil || *n.(*int) != 1 {
		t.Errorf("stub saw %v /v1/stats calls, want the probe's one", n)
	}
}
