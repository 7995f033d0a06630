package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/server"
)

var (
	sysOnce sync.Once
	sysInst *pathcost.System
	sysErr  error
)

// testSystem trains one shared small system for the shard tests — the
// same shape the server tests use.
func testSystem(t testing.TB) *pathcost.System {
	t.Helper()
	sysOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		sysInst, sysErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 11, Params: params,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

// fleet is one sharded deployment under test: K shard servers, the
// union reference server, and a coordinator over the shards.
type fleet struct {
	part    *Partition
	split   *SplitResult
	coord   *Coordinator
	coordTS *httptest.Server
	unionTS *httptest.Server
	shardTS []*httptest.Server
}

// startFleet splits the test model k ways and boots the whole
// deployment on httptest servers. Extra mutates the coordinator config
// before it is built (nil for defaults).
func startFleet(t testing.TB, k int, extra func(*Config)) *fleet {
	t.Helper()
	part, split := splitTestModel(t, k)
	return serveFleet(t, part, split, extra)
}

// splitTestModel splits the test model k ways.
func splitTestModel(t testing.TB, k int) (*Partition, *SplitResult) {
	t.Helper()
	sys := testSystem(t)
	part, err := NewPartition(sys.Graph, k, sys.Params)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	split, err := SplitModel(sys, part)
	if err != nil {
		t.Fatalf("SplitModel: %v", err)
	}
	return part, split
}

// serveFleet boots the deployment of split on httptest servers (see
// startFleet).
func serveFleet(t testing.TB, part *Partition, split *SplitResult, extra func(*Config)) *fleet {
	t.Helper()
	sys := testSystem(t)
	f := &fleet{part: part, split: split}
	cfg := Config{ProbeInterval: -1} // handler-only tests: no probe loops
	for r, ss := range split.Shards {
		ts := httptest.NewServer(server.New(ss, server.Config{MaxInFlight: 4}).Handler())
		f.shardTS = append(f.shardTS, ts)
		cfg.Shards = append(cfg.Shards, ts.URL)
		_ = r
	}
	f.unionTS = httptest.NewServer(server.New(split.Union, server.Config{MaxInFlight: 4}).Handler())
	if extra != nil {
		extra(&cfg)
	}
	var err error
	f.coord, err = New(sys.Graph, part, cfg)
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	f.coordTS = httptest.NewServer(f.coord.Handler())
	t.Cleanup(func() {
		f.coordTS.Close()
		f.unionTS.Close()
		for _, ts := range f.shardTS {
			ts.Close()
		}
	})
	return f
}

// postRaw POSTs body and returns (status, response bytes).
func postRaw(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, data
}

// queryPaths samples deterministic random query paths of mixed length.
func queryPaths(t testing.TB, sys *pathcost.System, n int, seed int64) []pathcost.Path {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	var out []pathcost.Path
	for len(out) < n {
		p, err := sys.RandomQueryPath(2+rnd.Intn(8), rnd.Intn)
		if err != nil {
			t.Fatalf("RandomQueryPath: %v", err)
		}
		out = append(out, p)
	}
	return out
}

// crossRegionPath finds a sampled path spanning at least two regions;
// inRegionPath finds one that does not.
func crossRegionPath(t testing.TB, f *fleet, sys *pathcost.System) pathcost.Path {
	t.Helper()
	for _, p := range queryPaths(t, sys, 200, 7) {
		if len(f.part.SegmentPath(sys.Graph, p)) > 1 {
			return p
		}
	}
	t.Fatal("no cross-region path in 200 samples")
	return nil
}

func inRegionPath(t testing.TB, f *fleet, sys *pathcost.System) pathcost.Path {
	t.Helper()
	for _, p := range queryPaths(t, sys, 200, 8) {
		if len(f.part.SegmentPath(sys.Graph, p)) == 1 {
			return p
		}
	}
	t.Fatal("no single-region path in 200 samples")
	return nil
}

func edgeIDs(p pathcost.Path) []int64 {
	out := make([]int64, len(p))
	for i, e := range p {
		out[i] = int64(e)
	}
	return out
}
