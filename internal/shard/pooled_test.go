package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// TestCoordinatorPooledStorageDifferential holds both tiers' pooled
// request storage, through the coordinator, and the shards' query
// caches to the union model evaluated by the library with nothing
// reused: cache on against cache off. The shards run the query cache
// and the memo; the coordinator validates paths, composes relayed
// answers and writes results in its requests' Scratch and its pooled
// compositions, and sends each wave in a pooled call whose legs decode
// into storage of their own; a released Scratch, call or composition
// is scrambled in test binaries. Interleaved single and batch requests
// over cross-region and in-region paths, departing at the start or at
// a random second of two α-intervals — misses, then hits at both cache
// levels and memo resumptions — run from one client and then from four
// at once, in four epochs: between them a shard and the union publish
// the same trips, all inside the shard's region, so the union stays
// the disjoint union of the shards (region by region, over those whose
// shard holds variables for the trips to rebuild). Three ways: plainly; with a hedge
// after a microsecond, so that every call launches a second leg that
// outlives it; and with a shard refusing a connection and one
// answering garbage once before every request, so that calls retry.
func TestCoordinatorPooledStorageDifferential(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		pooledDifferential(t, publishingFleet(t, nil), nil)
	})
	t.Run("hedged", func(t *testing.T) {
		f := publishingFleet(t, func(cfg *Config) { cfg.HedgeAfter = time.Microsecond })
		pooledDifferential(t, f, nil)
		if f.coord.hedges.Load() == 0 {
			t.Fatal("no hedge was launched")
		}
	})
	t.Run("retried", func(t *testing.T) {
		ft := newFaultTransport()
		f := publishingFleet(t, func(cfg *Config) { cfg.Transport = ft })
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

// publishingFleet is startFleet over 3 regions, whose shards and union
// are loaded with the test model's trajectories, so that they can
// publish exactly.
func publishingFleet(t *testing.T, extra func(*Config)) *fleet {
	part, split := splitTestModel(t, 3)
	withData := func(sys *pathcost.System) *pathcost.System {
		var model bytes.Buffer
		if err := sys.SaveModel(&model); err != nil {
			t.Fatal(err)
		}
		out, err := pathcost.LoadSystem(sys.Graph, testSystem(t).Data(), &model)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for r, ss := range split.Shards {
		split.Shards[r] = withData(ss)
	}
	split.Union = withData(split.Union)
	return serveFleet(t, part, split, extra)
}

// inRegionTrips deals fresh trips on the test model's city, from
// another seed than its training trips, to the regions whose shard
// holds variables: the batches the differential's publishes apply, in
// order, up to 100 trips each.
func inRegionTrips(t *testing.T, f *fleet) (regions []int, batches [][]*pathcost.Matched) {
	sys := testSystem(t)
	fresh := trajgen.New(sys.Graph, traffic.NewModel(traffic.Config{}), trajgen.Config{Seed: 12, NumTrips: 1500}).Generate().Collection
	for r, ss := range f.split.Shards {
		if ss.Stats().TotalVariables() == 0 {
			continue
		}
		var batch []*pathcost.Matched
		for i := 0; i < fresh.Len() && len(batch) < 100; i++ {
			m := fresh.Traj(i)
			if region, ok := f.part.PathInRegion(sys.Graph, m.Path); ok && region == r {
				batch = append(batch, m)
			}
		}
		regions, batches = append(regions, r), append(batches, batch)
	}
	return regions, batches
}

// publishInRegion stages batch, trips inside region r, on region r's
// shard and on the union, and publishes both.
func publishInRegion(t *testing.T, f *fleet, r int, batch []*pathcost.Matched) {
	for _, target := range []*pathcost.System{f.split.Shards[r], f.split.Union} {
		if n, _ := target.StageTrajectories(batch); n == 0 {
			t.Fatalf("no trip of region %d staged", r)
		}
		if st, err := target.PublishEpoch(); err != nil || st.LastRebuiltVars+st.LastNewVars == 0 {
			t.Fatalf("region %d's publish rebuilt nothing (%+v, %v)", r, st, err)
		}
	}
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
	regions, batches := inRegionTrips(t, f)
	for _, batch := range batches {
		for _, m := range batch[:3] { // paths the publishes rebuild variables on
			paths = append(paths, m.Path)
		}
	}
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
			if rnd.Intn(2) == 0 {
				q.Depart += float64(1 + rnd.Intn(1799))
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
	moved := 0 // entries a publish changed the answer of
	for epoch := range 4 {
		if epoch > 0 {
			k := (epoch - 1) % len(regions)
			publishInRegion(t, f, regions[k], batches[k])
			for i := range ops {
				for j, q := range ops[i].entries {
					if r, ok := want(q); ok || r.Status == http.StatusBadRequest {
						if !reflect.DeepEqual(r, ops[i].want[j]) {
							moved++
						}
						ops[i].want[j] = r
					} else {
						t.Fatalf("epoch %d: the union no longer answers %v", epoch, q)
					}
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
	}
	if moved == 0 {
		t.Fatal("no publish changed an answer: the epochs are not exercised")
	}
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
