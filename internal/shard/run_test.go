package shard

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// TestCoordinatorRunListenerServesAndProbes exercises the serve loop
// the daemon runs: RunListener on port 0 with live probe loops,
// /healthz answering, probes observed against every shard, and a
// clean drain on cancel.
func TestCoordinatorRunListenerServesAndProbes(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 2, nil)

	coord, err := New(sys.Graph, f.part, Config{
		Shards:        []string{f.shardTS[0].URL, f.shardTS[1].URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- coord.RunListener(ctx, ln, time.Second) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}
	if hr, err := http.Post(base+"/healthz", "text/plain", nil); err == nil {
		if hr.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /healthz = %d, want 405", hr.StatusCode)
		}
		hr.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if coord.shards[0].replicas[0].probes.Load() > 0 && coord.shards[1].replicas[0].probes.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe loops never probed both shards")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for r := range coord.shards {
		if !coord.shards[r].healthy() {
			t.Errorf("shard %d unhealthy after live probes", r)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunListener returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not drain")
	}
}

// TestCoordinatorShedsWhenOverloaded fills the coordinator's single
// admission slot and its one-waiter queue with requests parked on a
// hung shard, then checks the next arrival is shed 429 + Retry-After
// while the parked requests survive the hang unscathed.
func TestCoordinatorShedsWhenOverloaded(t *testing.T) {
	sys := testSystem(t)
	ft := newFaultTransport()
	part, err := NewPartition(sys.Graph, 2, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	split, err := SplitModel(sys, part)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{part: part, split: split}
	for _, ss := range split.Shards {
		ts := httptest.NewServer(server.New(ss, server.Config{MaxInFlight: 4}).Handler())
		t.Cleanup(ts.Close)
		f.shardTS = append(f.shardTS, ts)
	}
	coord, err := New(sys.Graph, part, Config{
		Shards:        []string{f.shardTS[0].URL, f.shardTS[1].URL},
		ProbeInterval: -1,
		MaxInFlight:   1,
		MaxQueue:      1,
		Transport:     ft,
		HedgeAfter:    time.Hour, // no hedge: the hang must hold the slot
		Timeout:       700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	f.coordTS = coordTS

	queries, regions := regionQueries2(t, f)
	victim := regions[0]
	ft.set(f.shardTS[victim].URL, "hang")
	defer ft.set(f.shardTS[victim].URL, "")

	// One request holds the only slot (its shard call hangs until
	// Timeout); a second parks as the only permitted waiter.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := postRaw(t, f.coordTS.URL+"/v1/batch", api.BatchRequest{Queries: queries[:1]})
			codes[i] = code
		}(i)
		deadline := time.Now().Add(5 * time.Second)
		for int(coord.gate.Queued.Load()) < i {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Queue full: the next arrival must be rejected at the door.
	resp, err := http.Post(f.coordTS.URL+"/v1/distribution", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded coordinator answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if coord.gate.Shed.Load() == 0 {
		t.Fatal("shed counter did not move")
	}

	// The parked requests drain once the hung legs time out: both get
	// whole-batch 200s (the victim entry inside carries its own 503).
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("parked request %d = %d, want 200", i, code)
		}
	}
}

// regionQueries2 is regionQueries for a hand-built 2-way fleet.
func regionQueries2(t *testing.T, f *fleet) ([]api.BatchQuery, []int) {
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
	var queries []api.BatchQuery
	var regions []int
	for r := 0; r < f.part.K; r++ {
		if path, ok := byRegion[r]; ok {
			queries = append(queries, api.BatchQuery{Kind: "distribution", Path: path, Depart: 8 * 3600})
			regions = append(regions, r)
		}
	}
	if len(queries) == 0 {
		t.Fatal("no single-region queries found")
	}
	return queries, regions
}
