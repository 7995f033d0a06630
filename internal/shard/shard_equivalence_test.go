package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/api"
)

// normalize re-marshals a JSON response with its timing zeroed, so two
// servers' answers can be compared byte for byte. Everything else —
// float formatting included — must match exactly.
func normalize(t testing.TB, kind string, data []byte) []byte {
	t.Helper()
	var v any
	switch kind {
	case "distribution":
		r := &api.DistributionResponse{}
		if err := json.Unmarshal(data, r); err != nil {
			t.Fatalf("decoding %s response %q: %v", kind, data, err)
		}
		r.EvalUS = 0
		v = r
	case "route":
		r := &api.RouteResponse{}
		if err := json.Unmarshal(data, r); err != nil {
			t.Fatalf("decoding %s response %q: %v", kind, data, err)
		}
		r.EvalUS = 0
		v = r
	case "topk":
		r := &api.TopKResponse{}
		if err := json.Unmarshal(data, r); err != nil {
			t.Fatalf("decoding %s response %q: %v", kind, data, err)
		}
		v = r // topk entries carry no timing: compare verbatim
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return out
}

// TestCoordinatorByteIdenticalToUnion is the differential harness the
// sharded tier's correctness rests on: for 2/3/4-way partitions, a
// random distribution workload answered by the coordinator must be
// byte-identical — status and body — to a single process serving the
// union model, cold and warm, for every composable method.
func TestCoordinatorByteIdenticalToUnion(t *testing.T) {
	sys := testSystem(t)
	for _, k := range []int{2, 3, 4} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			f := startFleet(t, k, nil)
			paths := queryPaths(t, sys, 30, int64(100+k))
			depart := 8 * 3600.0
			crossed := 0
			// Two passes: the warm pass hits the shards' cache/memo
			// state populated by the cold one, which must not change a
			// single byte.
			for pass, label := range []string{"cold", "warm"} {
				for i, p := range paths {
					multi := len(f.part.SegmentPath(sys.Graph, p)) > 1
					if multi && pass == 0 {
						crossed++
					}
					for _, m := range []string{"OD", "HP", "LB"} {
						req := api.DistributionRequest{
							Path: edgeIDs(p), Depart: depart, Method: m, Budget: 1800,
						}
						cCode, cBody := postRaw(t, f.coordTS.URL+"/v1/distribution", req)
						uCode, uBody := postRaw(t, f.unionTS.URL+"/v1/distribution", req)
						if cCode != uCode {
							t.Fatalf("%s path %d %s: coordinator=%d union=%d (%s vs %s)",
								label, i, m, cCode, uCode, cBody, uBody)
						}
						if cCode != http.StatusOK {
							continue
						}
						cn, un := normalize(t, "distribution", cBody), normalize(t, "distribution", uBody)
						if !bytes.Equal(cn, un) {
							t.Fatalf("%s path %d %s (multi=%v): coordinator diverged from union\ncoord: %s\nunion: %s",
								label, i, m, multi, cn, un)
						}
					}
				}
			}
			if crossed == 0 {
				t.Fatal("workload crossed no region cut: differential test is vacuous")
			}
		})
	}
}

// TestCoordinatorRDSemantics: RD draws one decomposition over the
// whole path, so a single-region query is proxied whole (byte-equal to
// the owning shard) and a cross-region one is a 422, never a wrong
// answer.
func TestCoordinatorRDSemantics(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 3, nil)
	depart := 8 * 3600.0

	in := inRegionPath(t, f, sys)
	req := api.DistributionRequest{Path: edgeIDs(in), Depart: depart, Method: "RD"}
	cCode, cBody := postRaw(t, f.coordTS.URL+"/v1/distribution", req)
	region := f.part.SegmentPath(sys.Graph, in)[0].Region
	sCode, sBody := postRaw(t, f.shardTS[region].URL+"/v1/distribution", req)
	if cCode != sCode {
		t.Fatalf("single-region RD: coordinator=%d shard=%d", cCode, sCode)
	}
	if cCode == http.StatusOK && !bytes.Equal(normalize(t, "distribution", cBody), normalize(t, "distribution", sBody)) {
		t.Fatalf("single-region RD diverged from owning shard:\n%s\nvs\n%s", cBody, sBody)
	}

	cross := crossRegionPath(t, f, sys)
	code, body := postRaw(t, f.coordTS.URL+"/v1/distribution",
		api.DistributionRequest{Path: edgeIDs(cross), Depart: depart, Method: "RD"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("cross-region RD = %d (%s), want 422", code, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || !bytes.Contains(body, []byte("cannot be composed")) {
		t.Fatalf("cross-region RD error malformed: %s", body)
	}
}

// TestCoordinatorProxiesRoutingToOwningShard: route/topk run
// region-local routing on the shard owning the source vertex; the
// coordinator's answer must be that shard's answer, byte for byte.
func TestCoordinatorProxiesRoutingToOwningShard(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 2, nil)
	depart := 8 * 3600.0

	// Pick a source/dest pair inside one region so the owning shard can
	// actually route it.
	var src, dst int64
	var budget float64
	found := false
	for _, p := range queryPaths(t, sys, 100, 17) {
		if len(f.part.SegmentPath(sys.Graph, p)) != 1 {
			continue
		}
		e0, eN := sys.Graph.Edge(p[0]), sys.Graph.Edge(p[len(p)-1])
		if e0.From == eN.To {
			continue
		}
		src, dst = int64(e0.From), int64(eN.To)
		budget = 3600
		found = true
		break
	}
	if !found {
		t.Fatal("no single-region routing pair found")
	}
	region := f.part.Vertex[src]

	rreq := api.RouteRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}
	cCode, cBody := postRaw(t, f.coordTS.URL+"/v1/route", rreq)
	sCode, sBody := postRaw(t, f.shardTS[region].URL+"/v1/route", rreq)
	if cCode != sCode {
		t.Fatalf("route: coordinator=%d shard=%d (%s vs %s)", cCode, sCode, cBody, sBody)
	}
	if cCode == http.StatusOK && !bytes.Equal(normalize(t, "route", cBody), normalize(t, "route", sBody)) {
		t.Fatalf("route diverged from owning shard:\n%s\nvs\n%s", cBody, sBody)
	}

	treq := api.TopKRequest{RouteRequest: rreq, K: 3}
	cCode, cBody = postRaw(t, f.coordTS.URL+"/v1/topk", treq)
	sCode, sBody = postRaw(t, f.shardTS[region].URL+"/v1/topk", treq)
	if cCode != sCode {
		t.Fatalf("topk: coordinator=%d shard=%d", cCode, sCode)
	}
	if cCode == http.StatusOK && !bytes.Equal(normalize(t, "topk", cBody), normalize(t, "topk", sBody)) {
		t.Fatalf("topk diverged from owning shard:\n%s\nvs\n%s", cBody, sBody)
	}
}

// TestCoordinatorBatchMatchesUnion sends one mixed batch through the
// coordinator and checks each distribution entry against the union
// server's batch answer for the same queries.
func TestCoordinatorBatchMatchesUnion(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 3, nil)
	depart := 8 * 3600.0

	var queries []api.BatchQuery
	for _, p := range queryPaths(t, sys, 8, 23) {
		queries = append(queries, api.BatchQuery{
			Kind: "distribution", Path: edgeIDs(p), Depart: depart, Budget: 1200,
		})
	}
	// One invalid entry: must fail alone, identically on both tiers.
	queries = append(queries, api.BatchQuery{Kind: "distribution", Path: []int64{1 << 40}, Depart: depart})

	breq := api.BatchRequest{Queries: queries}
	cCode, cBody := postRaw(t, f.coordTS.URL+"/v1/batch", breq)
	uCode, uBody := postRaw(t, f.unionTS.URL+"/v1/batch", breq)
	if cCode != http.StatusOK || uCode != http.StatusOK {
		t.Fatalf("batch: coordinator=%d union=%d", cCode, uCode)
	}
	var cResp, uResp api.BatchResponse
	if err := json.Unmarshal(cBody, &cResp); err != nil {
		t.Fatalf("decoding coordinator batch: %v", err)
	}
	if err := json.Unmarshal(uBody, &uResp); err != nil {
		t.Fatalf("decoding union batch: %v", err)
	}
	if len(cResp.Results) != len(queries) || len(uResp.Results) != len(queries) {
		t.Fatalf("result counts %d/%d for %d queries", len(cResp.Results), len(uResp.Results), len(queries))
	}
	for i := range queries {
		cr, ur := cResp.Results[i], uResp.Results[i]
		if cr.Status != ur.Status {
			t.Errorf("entry %d: coordinator=%d union=%d (%s vs %s)", i, cr.Status, ur.Status, cr.Error, ur.Error)
			continue
		}
		if cr.Status != http.StatusOK {
			continue
		}
		cr.Distribution.EvalUS = 0
		ur.Distribution.EvalUS = 0
		cb, _ := json.Marshal(cr.Distribution)
		ub, _ := json.Marshal(ur.Distribution)
		if !bytes.Equal(cb, ub) {
			t.Errorf("entry %d diverged:\n%s\nvs\n%s", i, cb, ub)
		}
	}
}

// TestCoordinatorRejectsClientStateKind: the partial-state protocol is
// shard-internal; a client must not be able to inject states.
func TestCoordinatorRejectsClientStateKind(t *testing.T) {
	f := startFleet(t, 2, nil)
	code, body := postRaw(t, f.coordTS.URL+"/v1/batch", api.BatchRequest{
		Queries: []api.BatchQuery{{Kind: "state", Path: []int64{0}, Depart: 0}},
	})
	if code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 1 {
		t.Fatalf("batch response malformed: %s", body)
	}
	if resp.Results[0].Status != http.StatusBadRequest {
		t.Fatalf("client state kind = %d, want 400", resp.Results[0].Status)
	}
}

// TestCoordinatorStatsAndMetrics covers the coordinator's operational
// surface: /v1/stats shard table and the Prometheus scrape.
func TestCoordinatorStatsAndMetrics(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 2, nil)
	p := crossRegionPath(t, f, sys)
	if code, _ := postRaw(t, f.coordTS.URL+"/v1/distribution",
		api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600}); code != http.StatusOK {
		t.Fatalf("distribution = %d", code)
	}

	resp, err := http.Get(f.coordTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		K      int `json:"k"`
		Shards []struct {
			Region   int  `json:"region"`
			Healthy  bool `json:"healthy"`
			Replicas []struct {
				Base        string `json:"base"`
				Healthy     bool   `json:"healthy"`
				Calls       uint64 `json:"calls"`
				BreakerOpen bool   `json:"breaker_open"`
			} `json:"replicas"`
			Epoch *uint64
		} `json:"shards"`
		Served uint64 `json:"served"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	resp.Body.Close()
	if stats.K != 2 || len(stats.Shards) != 2 || stats.Served == 0 {
		t.Fatalf("stats malformed: %+v", stats)
	}
	totalCalls := uint64(0)
	for _, ss := range stats.Shards {
		if !ss.Healthy {
			t.Errorf("shard %d reported unhealthy in a healthy fleet", ss.Region)
		}
		if len(ss.Replicas) != 1 {
			t.Fatalf("shard %d lists %d replicas, want 1", ss.Region, len(ss.Replicas))
		}
		if ss.Replicas[0].BreakerOpen {
			t.Errorf("shard %d replica breaker open in a healthy fleet", ss.Region)
		}
		totalCalls += ss.Replicas[0].Calls
	}
	if totalCalls == 0 {
		t.Error("no shard calls recorded after a cross-region query")
	}

	mresp, err := http.Get(f.coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"pathcost_coordinator_requests_served_total",
		"pathcost_coordinator_shard_healthy{region=\"0\"} 1",
		"pathcost_coordinator_shard_calls_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestProbeObservesShardDeath exercises probeOnce directly: a live
// shard probes healthy, a dead one flips the flag, and recovery flips
// it back.
func TestProbeObservesShardDeath(t *testing.T) {
	f := startFleet(t, 2, nil)
	rs := f.coord.shards[0].replicas[0]
	f.coord.probeOnce(t.Context(), rs)
	if !rs.healthy.Load() {
		t.Fatal("live shard probed unhealthy")
	}
	f.shardTS[0].Close()
	f.coord.probeOnce(t.Context(), rs)
	if rs.healthy.Load() {
		t.Fatal("dead shard probed healthy")
	}
	if rs.probes.Load() != 2 || rs.probeFailures.Load() != 1 {
		t.Fatalf("probe counters = %d/%d, want 2/1", rs.probes.Load(), rs.probeFailures.Load())
	}
}

// TestCoordinatorInlineAndFannedOutWavesConcurrently drives both
// shapes of both fan-outs at once — one-shard waves (run on the
// composing goroutine) beside multi-shard ones, which reach the shards
// as one-entry batches (evaluated on the handler's goroutine) beside
// N-entry ones — from several clients, and holds every answer to the
// union model's. Run under -race -count=10.
func TestCoordinatorInlineAndFannedOutWavesConcurrently(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 3, nil)
	depart := 8 * 3600.0
	paths := queryPaths(t, sys, 12, 41)
	crossing := crossRegionPath(t, f, sys)

	var queries []api.BatchQuery
	regions := map[int]bool{}
	for _, p := range append(paths, crossing) {
		queries = append(queries, api.BatchQuery{Kind: "distribution", Path: edgeIDs(p), Depart: depart})
		regions[f.part.SegmentPath(sys.Graph, p)[0].Region] = true
	}
	if len(regions) < 2 {
		t.Fatal("every path starts in one region: the batch's first wave would not fan out")
	}
	want := make([][]byte, len(queries)) // nil where the union answers non-200
	for i, q := range queries {
		code, body := postRaw(t, f.unionTS.URL+"/v1/distribution",
			api.DistributionRequest{Path: q.Path, Depart: depart})
		if code == http.StatusOK {
			want[i] = normalize(t, "distribution", body)
		}
	}
	check := func(i int, status int, d *api.DistributionResponse) {
		if (status == http.StatusOK) != (want[i] != nil) {
			t.Errorf("query %d: coordinator status %d, union answered 200: %v", i, status, want[i] != nil)
			return
		}
		if status != http.StatusOK {
			return
		}
		d.EvalUS = 0
		if got, _ := json.Marshal(d); !bytes.Equal(got, want[i]) {
			t.Errorf("query %d diverged from the union model:\n%s\nvs\n%s", i, got, want[i])
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if c%2 == 0 {
					// All entries in one batch: multi-shard waves, N-entry
					// shard batches.
					code, body := postRaw(t, f.coordTS.URL+"/v1/batch", api.BatchRequest{Queries: queries})
					var resp api.BatchResponse
					if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil || len(resp.Results) != len(queries) {
						t.Errorf("client %d: batch = %d (%v)", c, code, err)
						return
					}
					for i, r := range resp.Results {
						check(i, r.Status, r.Distribution)
					}
					continue
				}
				// One query per request: one-shard waves, one-entry batches.
				for i := (c + round) % 3; i < len(queries); i += 3 {
					code, body := postRaw(t, f.coordTS.URL+"/v1/distribution",
						api.DistributionRequest{Path: queries[i].Path, Depart: depart})
					var d api.DistributionResponse
					if code == http.StatusOK {
						if err := json.Unmarshal(body, &d); err != nil {
							t.Errorf("client %d query %d: %v", c, i, err)
							continue
						}
					}
					check(i, code, &d)
				}
			}
		}(c)
	}
	wg.Wait()
}
