package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/api"
)

// pooledOp is one request of the pooled-storage differential: a single
// distribution (one entry) or a batch.
type pooledOp struct {
	batch   bool
	entries []batchQuery
}

// pooledOps draws an interleaving of single and batch distribution
// requests over the prefixes of a few trunk paths, departing at the
// start or at a random second of two α-intervals: first sightings miss
// the cache, a
// departure that picks the variables an earlier one picked is served
// its answer, repeats hit the exact level, and a prefix of an
// evaluated path resumes from the memo.
func pooledOps(t *testing.T, sys *pathcost.System, seed int64) []pooledOp {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	var trunks []pathcost.Path
	for len(trunks) < 6 {
		p, err := sys.RandomQueryPath(8+rnd.Intn(17), rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		trunks = append(trunks, p)
	}
	methods := []string{"", "OD", "HP", "LB", "RD"}
	departs := []float64{8 * 3600, 17 * 3600}
	entry := func() batchQuery {
		if rnd.Intn(25) == 0 {
			return batchQuery{Path: []int64{0, 0}, Depart: departs[0]} // a 400
		}
		trunk := trunks[rnd.Intn(len(trunks))]
		q := batchQuery{
			Path:   api.EdgeIDs(trunk[:1+rnd.Intn(len(trunk))]),
			Depart: departs[rnd.Intn(len(departs))],
			Method: methods[rnd.Intn(len(methods))],
		}
		if rnd.Intn(2) == 0 {
			q.Depart += float64(1 + rnd.Intn(1799))
		}
		if rnd.Intn(3) == 0 {
			q.Budget = float64(300 + rnd.Intn(1500))
		}
		return q
	}
	ops := make([]pooledOp, 120)
	for i := range ops {
		if i%4 == 3 {
			ops[i].batch = true
			for n := 2 + rnd.Intn(7); n > 0; n-- {
				ops[i].entries = append(ops[i].entries, entry())
			}
		} else {
			ops[i].entries = []batchQuery{entry()}
		}
	}
	return ops
}

// body is op's request body.
func (op *pooledOp) body(t *testing.T) []byte {
	t.Helper()
	var v any = batchRequest{Queries: op.entries}
	if !op.batch {
		q := op.entries[0]
		v = distributionRequest{Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget}
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceEntry answers one entry on ref below every serving layer:
// no pooled storage, no cache, no memo, the library's own path.
func referenceEntry(ref *pathcost.System, q batchQuery) batchResult {
	out := batchResult{Kind: "distribution"}
	m, p, err := api.CheckDistribution(ref.Graph, &distributionRequest{
		Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
	}, nil)
	if err != nil {
		out.Status, out.Error = http.StatusBadRequest, err.Error()
		return out
	}
	res, err := ref.PathDistribution(p, q.Depart, m)
	if err != nil {
		out.Status, out.Error = http.StatusUnprocessableEntity, err.Error()
		return out
	}
	out.Status = http.StatusOK
	out.Distribution = api.DistributionPayload(string(m), ref.Params.IntervalOf(q.Depart), res.Dist,
		q.Budget, res.Decomp.Cardinality(), res.Decomp.MaxRank(), 0)
	return out
}

// reference is op's expected answer: status and body, with eval_us 0.
func (op *pooledOp) reference(t *testing.T, ref *pathcost.System) (int, []byte) {
	t.Helper()
	var v any
	status := http.StatusOK
	if op.batch {
		resp := batchResponse{}
		for _, q := range op.entries {
			resp.Results = append(resp.Results, referenceEntry(ref, q))
		}
		v = resp
	} else if r := referenceEntry(ref, op.entries[0]); r.Status != http.StatusOK {
		status, v = r.Status, errorResponse{Error: r.Error}
	} else {
		v = r.Distribution
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return status, b
}

// normalized re-marshals a served answer with eval_us zeroed: a hit
// reports the timing of the miss that filled the cache.
func (op *pooledOp) normalized(t *testing.T, status int, body []byte) []byte {
	var v any = &errorResponse{}
	switch {
	case status != http.StatusOK:
	case op.batch:
		v = &batchResponse{}
	default:
		v = &distributionResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Errorf("undecodable answer %q: %v", body, err)
		return body
	}
	switch v := v.(type) {
	case *batchResponse:
		for _, r := range v.Results {
			if r.Distribution != nil {
				r.Distribution.EvalUS = 0
			}
		}
	case *distributionResponse:
		v.EvalUS = 0
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pooledDifferential serves ops through h, sequentially and then from
// four concurrent clients, and holds every answer to the reference
// system's.
func pooledDifferential(t *testing.T, h http.Handler, ref *pathcost.System, ops []pooledOp, label string) {
	t.Helper()
	bodies := make([][]byte, len(ops))
	wantStatus := make([]int, len(ops))
	want := make([][]byte, len(ops))
	for i := range ops {
		bodies[i] = ops[i].body(t)
		wantStatus[i], want[i] = ops[i].reference(t, ref)
	}
	serve := func(i int) {
		url := "/v1/distribution"
		if ops[i].batch {
			url = "/v1/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[i])))
		got := ops[i].normalized(t, rec.Code, rec.Body.Bytes())
		if rec.Code != wantStatus[i] || !bytes.Equal(got, want[i]) {
			t.Errorf("%s: op %d (%s %s) answered %d\n%s\nthe reference %d\n%s",
				label, i, url, bodies[i], rec.Code, got, wantStatus[i], want[i])
		}
	}
	for i := range ops {
		serve(i)
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

// TestPooledStorageDifferential holds the single-process tier's pooled
// request storage and its query cache to a system that reuses nothing:
// cache on against cache off. A Scratch's ids and edges are scrambled
// when it is released (in test binaries), so a path that reached core,
// the memo or the query cache without being copied turns later answers
// — memo resumptions, cache hits — into wrong bytes or failures.
// Interleaved single and batch requests, misses, hits at both cache
// levels and memo resumptions run in four epochs, with three publishes
// that both systems apply between them; a publish leaves the cache's
// second level holding answers the new epoch serves.
func TestPooledStorageDifferential(t *testing.T) {
	cfg := pathcost.SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 11}
	served, err := pathcost.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pathcost.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served.EnableQueryCache(256)
	served.EnableConvMemo(1024)
	h := New(served, Config{MaxInFlight: 4}).Handler()
	ops := pooledOps(t, served, 21)
	answered, entries := 0, 0
	for _, op := range ops {
		for _, q := range op.entries {
			entries++
			if referenceEntry(ref, q).Status == http.StatusOK {
				answered++
			}
		}
	}
	if 4*answered < 3*entries {
		t.Fatalf("the reference answers only %d of %d entries: the differential compares mostly errors", answered, entries)
	}
	pooledDifferential(t, h, ref, ops, "epoch 1")

	data := served.Data()
	for epoch := 2; epoch <= 4; epoch++ {
		var batch []*pathcost.Matched
		for i := 100 * (epoch - 2); i < 100*(epoch-1) && i < data.Len(); i++ {
			batch = append(batch, data.Traj(i))
		}
		for _, sys := range []*pathcost.System{served, ref} {
			if n, _ := sys.StageTrajectories(batch); n == 0 {
				t.Fatal("nothing staged")
			}
			if _, err := sys.PublishEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if seq := served.EpochStats().Seq; seq != uint64(epoch) {
			t.Fatalf("the publish moved the epoch to %d, want %d", seq, epoch)
		}
		before, _ := served.QueryCacheStats()
		pooledDifferential(t, h, ref, ops, fmt.Sprintf("epoch %d", epoch))
		if st, _ := served.QueryCacheStats(); st.Hits == before.Hits || st.Misses == before.Misses {
			t.Fatalf("query cache moved from %+v to %+v in epoch %d: the workload must both hit and miss", before, st, epoch)
		}
	}
	if st, _ := served.ConvMemoStats(); st.Hits == 0 {
		t.Fatalf("memo %+v: no query resumed from a prefix", st)
	}
}
