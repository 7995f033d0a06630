package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// TestRunSIGHUPPublishesEpoch drives the daemon's run loop end to
// end: boot on port 0, stream a raw-GPS batch through /v1/ingest,
// deliver a SIGHUP, and watch /v1/stats report the next epoch — with
// queries serving throughout — then shut down cleanly.
func TestRunSIGHUPPublishesEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full daemon")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	hup := make(chan os.Signal, 1)
	type ready struct {
		addr net.Addr
		sys  *pathcost.System
	}
	readyc := make(chan ready, 1)
	done := make(chan error, 1)

	opt := options{
		addr:          "127.0.0.1:0",
		preset:        "test",
		trips:         2000,
		seed:          31,
		beta:          20,
		alpha:         30,
		cacheSize:     256,
		memoSize:      256,
		useSynopsis:   true,
		drain:         time.Second,
		enableIngest:  true,
		ingestWorkers: 2,
	}
	logger := log.New(io.Discard, "", 0)
	go func() {
		done <- run(ctx, opt, logger, hup, func(a net.Addr, s *pathcost.System) {
			readyc <- ready{addr: a, sys: s}
		})
	}()

	var rd ready
	select {
	case rd = <-readyc:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + rd.addr.String()

	// Raw traces over the served graph, streamed in as a fleet would.
	res := trajgen.New(rd.sys.Graph, traffic.NewModel(traffic.Config{}), trajgen.Config{
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
	var ingReq struct {
		Trajectories []trajJSON `json:"trajectories"`
	}
	for _, tr := range res.Raw {
		tj := trajJSON{ID: tr.ID}
		for _, rec := range tr.Records {
			tj.Points = append(tj.Points, pointJSON{Lat: rec.Pt.Lat, Lon: rec.Pt.Lon, T: rec.Time})
		}
		ingReq.Trajectories = append(ingReq.Trajectories, tj)
	}
	body, err := json.Marshal(ingReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		Staged int    `json:"staged"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ing.Staged == 0 {
		t.Fatalf("ingest: status %d, staged %d", resp.StatusCode, ing.Staged)
	}
	if ing.Epoch != 1 {
		t.Fatalf("ingest published by itself: epoch %d", ing.Epoch)
	}

	// SIGHUP = force publish now.
	hup <- syscall.SIGHUP

	deadline := time.Now().Add(30 * time.Second)
	var seq uint64
	for time.Now().Before(deadline) {
		seq = statsEpoch(t, base)
		if seq >= 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if seq < 2 {
		t.Fatalf("epoch never advanced past %d after SIGHUP", seq)
	}

	// Queries still serve on the new epoch.
	hr, err := http.Get(base + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("healthz after publish: %v / %v", err, hr)
	}
	hr.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// statsEpoch polls /v1/stats for the served epoch sequence.
func statsEpoch(t *testing.T, base string) uint64 {
	t.Helper()
	seq, _ := statsEpochBlock(t, base)
	return seq
}

// statsEpochBlock polls /v1/stats for the served epoch sequence and
// the count of completed publishes.
func statsEpochBlock(t *testing.T, base string) (seq, publishes uint64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Epoch *struct {
			Seq       uint64 `json:"seq"`
			Publishes uint64 `json:"publishes"`
		} `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch == nil {
		t.Fatal("stats missing epoch block")
	}
	return st.Epoch.Seq, st.Epoch.Publishes
}

// TestRunRejectsBadFlags covers the option validation path without
// booting a server.
func TestRunRejectsBadFlags(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := run(ctx, options{modelFile: "m.txt"}, logger, nil, nil)
	if err == nil {
		t.Fatal("run accepted -model without -network")
	}
	if got := fmt.Sprint(err); got == "" {
		t.Fatal("empty error")
	}
}
