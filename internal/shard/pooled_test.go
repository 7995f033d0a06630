package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// TestCoordinatorPooledStorageDifferential holds both tiers' pooled
// request storage, through the coordinator, to the union model
// evaluated by the library with nothing reused. The shards run the
// query cache and the memo; the coordinator validates paths, composes
// relayed answers and writes results in its requests' Scratch and its
// pooled compositions, and sends each wave in a pooled call whose
// legs decode into storage of their own; a released Scratch, call or
// composition is scrambled in test binaries. Interleaved single and
// batch requests over cross-region and in-region paths — misses, then
// hits and memo resumptions — run from one client and then from four
// at once, three ways: plainly; with a hedge after a microsecond, so
// that every call launches a second leg that outlives it; and with a
// shard refusing a connection and one answering garbage once before
// every request, so that calls retry. (The shards serve loaded models,
// which hold no trajectories to stage, so the publish of the
// single-process differential has no counterpart here.)
func TestCoordinatorPooledStorageDifferential(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		pooledDifferential(t, startFleet(t, 3, nil), nil)
	})
	t.Run("hedged", func(t *testing.T) {
		f := startFleet(t, 3, func(cfg *Config) { cfg.HedgeAfter = time.Microsecond })
		pooledDifferential(t, f, nil)
		if f.coord.hedges.Load() == 0 {
			t.Fatal("no hedge was launched")
		}
	})
	t.Run("retried", func(t *testing.T) {
		ft := newFaultTransport()
		f := startFleet(t, 3, func(cfg *Config) { cfg.Transport = ft })
		modes := [3]string{"kill-once", "garbage-once", ""}
		pooledDifferential(t, f, func(i int) {
			for r, ts := range f.shardTS {
				if i < 0 {
					ft.set(ts.URL, "")
				} else {
					ft.set(ts.URL, modes[(i+r)%3])
				}
			}
		})
		var failures uint64
		for _, ss := range f.coord.shards {
			failures += ss.replicas[0].callFailures.Load()
		}
		if failures == 0 {
			t.Fatal("no leg failed: the retries are not exercised")
		}
	})
}

// pooledDifferential runs the differential on f. arm, when not nil,
// sets the shards' faults before op i of the one-client pass, and
// clears them for the four-client pass when i is -1: a fault that
// fails only the first call after it is set would otherwise be set
// again between another call's two legs.
func pooledDifferential(t *testing.T, f *fleet, arm func(i int)) {
	sys := testSystem(t)
	for _, ss := range f.split.Shards {
		ss.EnableQueryCache(256)
		ss.EnableConvMemo(1024)
	}
	union := f.split.Union
	rnd := rand.New(rand.NewSource(31))
	paths := append(queryPaths(t, sys, 10, 32), crossRegionPath(t, f, sys))
	methods := []string{"", "OD", "HP", "LB"}
	departs := []float64{8 * 3600, 17 * 3600}

	// want answers one entry on the union model; ok reports a 200.
	want := func(q api.BatchQuery) (api.BatchResult, bool) {
		out := api.BatchResult{Kind: "distribution"}
		m, p, err := api.CheckDistribution(union.Graph, &api.DistributionRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
		}, nil)
		if err != nil {
			out.Status, out.Error = http.StatusBadRequest, err.Error()
			return out, false
		}
		res, err := union.PathDistribution(p, q.Depart, m)
		if err != nil {
			return out, false
		}
		out.Status = http.StatusOK
		out.Distribution = api.DistributionPayload(string(m), union.Params.IntervalOf(q.Depart), res.Dist,
			q.Budget, res.Decomp.Cardinality(), res.Decomp.MaxRank(), 0)
		return out, true
	}
	type op struct {
		batch   bool
		entries []api.BatchQuery
		want    []api.BatchResult
	}
	var ops []op
	crossed := 0
	for len(ops) < 60 {
		o := op{batch: len(ops)%3 == 2}
		for n := 1 + rnd.Intn(6); n > 0 && (o.batch || len(o.entries) == 0); n-- {
			p := paths[rnd.Intn(len(paths))]
			p = p[:1+rnd.Intn(len(p))]
			q := api.BatchQuery{
				Path:   edgeIDs(p),
				Depart: departs[rnd.Intn(len(departs))],
				Method: methods[rnd.Intn(len(methods))],
			}
			if rnd.Intn(3) == 0 {
				q.Budget = float64(300 + rnd.Intn(1500))
			}
			if o.batch && rnd.Intn(8) == 0 {
				q.Path = []int64{0, 0} // an entry's own 400
			}
			r, ok := want(q)
			if !ok && r.Status != http.StatusBadRequest {
				continue // sparse on the union model: the tiers word a 422 differently
			}
			if ok && len(f.part.SegmentPath(sys.Graph, p)) > 1 {
				crossed++
			}
			o.entries = append(o.entries, q)
			o.want = append(o.want, r)
		}
		if len(o.entries) > 0 {
			ops = append(ops, o)
		}
	}
	if crossed == 0 {
		t.Fatal("no entry crossed a region cut: the relay is not exercised")
	}

	serve := func(i int) {
		o := &ops[i]
		var code int
		var body []byte
		var got []api.BatchResult
		if o.batch {
			code, body = postRaw(t, f.coordTS.URL+"/v1/batch", api.BatchRequest{Queries: o.entries})
			var resp api.BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK {
				t.Errorf("op %d: batch answered %d %s", i, code, body)
				return
			}
			got = resp.Results
		} else {
			q := o.entries[0]
			code, body = postRaw(t, f.coordTS.URL+"/v1/distribution",
				api.DistributionRequest{Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget})
			r := api.BatchResult{Kind: "distribution", Status: code}
			if code == http.StatusOK {
				r.Distribution = new(api.DistributionResponse)
				if err := json.Unmarshal(body, r.Distribution); err != nil {
					t.Errorf("op %d: undecodable answer %s", i, body)
					return
				}
			} else {
				var e api.Error
				_ = json.Unmarshal(body, &e)
				r.Error = e.Error
			}
			got = []api.BatchResult{r}
		}
		if len(got) != len(o.want) {
			t.Errorf("op %d: %d results for %d entries", i, len(got), len(o.want))
			return
		}
		for j := range got {
			if got[j].Distribution != nil {
				got[j].Distribution.EvalUS = 0
			}
			g, _ := json.Marshal(got[j])
			w, _ := json.Marshal(o.want[j])
			if !bytes.Equal(g, w) {
				t.Errorf("op %d entry %d diverged from the union model:\n%s\nvs\n%s", i, j, g, w)
			}
		}
	}
	for i := range ops {
		if arm != nil {
			arm(i)
		}
		serve(i)
	}
	if arm != nil {
		arm(-1)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(c))).Perm(len(ops)) {
				serve(i)
			}
		}(c)
	}
	wg.Wait()
	var hits, memoHits uint64
	for _, ss := range f.split.Shards {
		st, _ := ss.QueryCacheStats()
		mst, _ := ss.ConvMemoStats()
		hits, memoHits = hits+st.Hits, memoHits+mst.Hits
	}
	if hits == 0 || memoHits == 0 {
		t.Fatalf("shards answered %d cache hits and %d memo resumptions: reuse is not exercised", hits, memoHits)
	}
}
