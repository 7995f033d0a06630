package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/netgen"
	"repro/internal/shard"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// TestRunMultiShardE2E boots the full sharded deployment through the
// daemon's own run loop, files and all: train, split three ways, write
// network + partition + shard models to disk, start three shard
// daemons on port 0 (shard 0 with ingestion in decay mode), start a
// coordinator daemon over them, then prove the tier serves — a
// cross-region query answers, a raw-GPS batch ingested into shard 0
// publishes a new epoch on SIGHUP that the coordinator's /v1/stats
// observes, queries still serve on the new epoch, and /metrics is
// scrape-able — before everything drains cleanly.
func TestRunMultiShardE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four daemons")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := log.New(io.Discard, "", 0)

	// Train once, split three ways, persist the deployment files.
	params := pathcost.DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test", Trips: 3000, Seed: 11, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	split, err := shard.SplitModel(sys, part)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	networkFile := filepath.Join(dir, "net.txt")
	partitionFile := filepath.Join(dir, "shards.partition")
	writeFile := func(name string, write func(io.Writer) error) string {
		t.Helper()
		f, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return name
	}
	writeFile(networkFile, func(w io.Writer) error { return netgen.WriteGraph(w, sys.Graph) })
	writeFile(partitionFile, part.Write)

	// One daemon per shard, each serving its region's model file.
	type daemon struct {
		base string
		hup  chan os.Signal
		done chan error
	}
	var shardBases []string
	var daemons []daemon
	for r, ss := range split.Shards {
		model := writeFile(filepath.Join(dir, fmt.Sprintf("shard%d.model", r)), ss.SaveModel)
		opt := options{
			addr:        "127.0.0.1:0",
			networkFile: networkFile,
			modelFile:   model,
			cacheSize:   256,
			memoSize:    256,
			drain:       time.Second,
		}
		if r == 0 {
			// A file-loaded model has no trajectory collection, so
			// streaming maintenance must run in decay mode.
			opt.enableIngest = true
			opt.ingestWorkers = 2
			opt.decayHalflife = time.Hour
		}
		d := daemon{hup: make(chan os.Signal, 1), done: make(chan error, 1)}
		readyc := make(chan net.Addr, 1)
		go func(opt options, d daemon) {
			d.done <- run(ctx, opt, logger, d.hup, func(a net.Addr, _ *pathcost.System) { readyc <- a })
		}(opt, d)
		select {
		case a := <-readyc:
			d.base = "http://" + a.String()
		case err := <-d.done:
			t.Fatalf("shard %d exited before ready: %v", r, err)
		case <-time.After(60 * time.Second):
			t.Fatalf("shard %d never became ready", r)
		}
		shardBases = append(shardBases, d.base)
		daemons = append(daemons, d)
	}

	// The coordinator daemon over the fleet, also through run().
	coordOpt := options{
		addr:          "127.0.0.1:0",
		coordinator:   true,
		networkFile:   networkFile,
		partitionFile: partitionFile,
		shards:        strings.Join(shardBases, ","),
		hedgeAfter:    150 * time.Millisecond,
		probeInterval: 500 * time.Millisecond,
		shardTimeout:  10 * time.Second,
		drain:         time.Second,
	}
	coord := daemon{done: make(chan error, 1)}
	readyc := make(chan net.Addr, 1)
	go func() {
		coord.done <- run(ctx, coordOpt, logger, nil, func(a net.Addr, _ *pathcost.System) { readyc <- a })
	}()
	select {
	case a := <-readyc:
		coord.base = "http://" + a.String()
	case err := <-coord.done:
		t.Fatalf("coordinator exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator never became ready")
	}

	// A cross-region distribution must answer through the relay.
	p := crossRegionQueryPath(t, sys, part)
	queryBody, err := json.Marshal(map[string]any{"path": p, "depart": 8 * 3600.0})
	if err != nil {
		t.Fatal(err)
	}
	postOK := func(url string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(queryBody))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, body)
		}
		var dist struct {
			Buckets []struct {
				P float64 `json:"p"`
			} `json:"buckets"`
		}
		if err := json.Unmarshal(body, &dist); err != nil || len(dist.Buckets) == 0 {
			t.Fatalf("cross-region answer malformed (%v): %s", err, body)
		}
	}
	postOK(coord.base + "/v1/distribution")

	// Stream raw GPS into shard 0 and force an epoch publish with the
	// daemon's SIGHUP channel; the coordinator's stats must see the
	// shard's epoch advance.
	daemons[0].hup <- syscall.SIGHUP // nothing staged: must be a no-op
	before := coordShardEpoch(t, coord.base, 0)
	ingestRaw(t, daemons[0].base, sys.Graph)
	daemons[0].hup <- syscall.SIGHUP
	deadline := time.Now().Add(30 * time.Second)
	for {
		if e := coordShardEpoch(t, coord.base, 0); e > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never observed shard 0 advancing past epoch %d", before)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The tier still serves on the new epoch, and the coordinator's
	// /metrics scrape reflects the served traffic.
	postOK(coord.base + "/v1/distribution")
	resp, err := http.Get(coord.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator /metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"pathcost_coordinator_requests_served_total",
		`pathcost_coordinator_shard_healthy{region="0"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}

	// Everything drains on cancel.
	cancel()
	for i, d := range append(daemons, coord) {
		select {
		case err := <-d.done:
			if err != nil {
				t.Errorf("daemon %d returned %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("daemon %d did not shut down", i)
		}
	}
}

// crossRegionQueryPath samples query paths until one crosses a region
// cut, so the coordinator must exercise its relay.
func crossRegionQueryPath(t *testing.T, sys *pathcost.System, part *shard.Partition) []int64 {
	t.Helper()
	rnd := rand.New(rand.NewSource(7))
	for range 300 {
		p, err := sys.RandomQueryPath(2+rnd.Intn(8), rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		if len(part.SegmentPath(sys.Graph, p)) > 1 {
			ids := make([]int64, len(p))
			for i, e := range p {
				ids[i] = int64(e)
			}
			return ids
		}
	}
	t.Fatal("no cross-region query path in 300 samples")
	return nil
}

// coordShardEpoch reads one shard's served epoch from the
// coordinator's /v1/stats (0 when the shard reports none).
func coordShardEpoch(t *testing.T, base string, region int) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Shards []struct {
			Region int     `json:"region"`
			Epoch  *uint64 `json:"epoch"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, ss := range st.Shards {
		if ss.Region == region && ss.Epoch != nil {
			return *ss.Epoch
		}
	}
	return 0
}

// ingestRaw streams a raw-GPS batch into base's /v1/ingest.
func ingestRaw(t *testing.T, base string, g *pathcost.Graph) {
	t.Helper()
	res := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 43, NumTrips: 20, EmitGPS: true,
	}).Generate()
	type pointJSON struct {
		Lat float64 `json:"lat"`
		Lon float64 `json:"lon"`
		T   float64 `json:"t"`
	}
	type trajJSON struct {
		ID     int64       `json:"id"`
		Points []pointJSON `json:"points"`
	}
	var req struct {
		Trajectories []trajJSON `json:"trajectories"`
	}
	for _, tr := range res.Raw {
		tj := trajJSON{ID: tr.ID}
		for _, rec := range tr.Records {
			tj.Points = append(tj.Points, pointJSON{Lat: rec.Pt.Lat, Lon: rec.Pt.Lon, T: rec.Time})
		}
		req.Trajectories = append(req.Trajectories, tj)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ingBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ing struct {
		Staged int `json:"staged"`
	}
	if err := json.Unmarshal(ingBody, &ing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ing.Staged == 0 {
		t.Fatalf("ingest = %d, staged %d: %s", resp.StatusCode, ing.Staged, ingBody)
	}
}

// TestRunRejectsBadCoordinatorFlags covers coordinator-mode option
// validation without booting anything.
func TestRunRejectsBadCoordinatorFlags(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		opt  options
		want string
	}{
		{"missing network+partition", options{coordinator: true, shards: "http://127.0.0.1:1"},
			"-network and -partition"},
		{"missing shards", options{coordinator: true, networkFile: "net.txt", partitionFile: "p.txt"},
			"-shards"},
	}
	for _, tc := range cases {
		err := run(ctx, tc.opt, logger, nil, nil)
		if err == nil {
			t.Errorf("%s: run accepted the flags", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
}
