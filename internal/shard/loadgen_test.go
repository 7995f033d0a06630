package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// TestLoadgenNominal is the load smoke the bench harness records: a
// sharded fleet under its target QPS must shed nothing, error nothing,
// and keep p99 within a generous bound.
func TestLoadgenNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short")
	}
	sys := testSystem(t)
	f := startFleet(t, 3, func(cfg *Config) { cfg.MaxQueue = 64 })

	// Mixed workload: single- and cross-region paths, round-robin.
	var bodies [][]byte
	for _, p := range queryPaths(t, sys, 16, 41) {
		b, err := json.Marshal(api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	var next atomic.Int64
	cfg := LoadConfig{
		QPS:      80,
		Duration: 2 * time.Second,
		Workers:  16,
		NewRequest: func() (*http.Request, error) {
			b := bodies[int(next.Add(1))%len(bodies)]
			req, err := http.NewRequest(http.MethodPost, f.coordTS.URL+"/v1/distribution", bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return req, nil
		},
	}
	res, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Sent == 0 || res.OK == 0 {
		t.Fatalf("no load delivered: %+v", res)
	}
	if res.Shed != 0 {
		t.Errorf("shed %d requests under nominal load, want 0", res.Shed)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors under nominal load, want 0", res.Errors)
	}
	// Generous: CI machines vary, but a healthy in-process fleet
	// answers cached or memo-backed queries in single-digit ms.
	if res.P99MS > 1000 {
		t.Errorf("p99 = %.1fms, want < 1000ms", res.P99MS)
	}
	if res.AchievedQPS < cfg.QPS/2 {
		t.Errorf("achieved %.1f qps against a %.0f qps target", res.AchievedQPS, cfg.QPS)
	}
}

func TestLoadgenConfigValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{}); err == nil {
		t.Error("nil request builder accepted")
	}
	nr := func() (*http.Request, error) { return http.NewRequest(http.MethodGet, "http://127.0.0.1:0/", nil) }
	if _, err := RunLoad(context.Background(), LoadConfig{NewRequest: nr}); err == nil {
		t.Error("zero qps accepted")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{NewRequest: nr, QPS: 10}); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestLoadgenCountsShed points the generator at a server that sheds
// everything and checks 429s land in Shed, not Errors.
func TestLoadgenCountsShed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	ts := srv.URL
	res, err := RunLoad(context.Background(), LoadConfig{
		QPS: 200, Duration: 300 * time.Millisecond, Workers: 4,
		NewRequest: func() (*http.Request, error) {
			return http.NewRequest(http.MethodPost, ts, bytes.NewReader([]byte("{}")))
		},
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Shed == 0 || res.Errors != 0 || res.OK != 0 {
		t.Fatalf("shed accounting wrong: %+v", res)
	}
}
