package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// budgetRecorder is a RoundTripper that records the api.BudgetHeader
// value of every shard leg before delegating to the default transport.
type budgetRecorder struct {
	mu      sync.Mutex
	budgets []string
}

func (b *budgetRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	b.mu.Lock()
	b.budgets = append(b.budgets, req.Header.Get(api.BudgetHeader))
	b.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestCoordinatorDefaultTimeoutAnswers504 pins the coordinator's
// deadline contract: a composition deadline that expires before the
// work can start answers 504 on the single-query endpoints and on the
// batch envelope — never a 503, which would misblame healthy shards —
// and a deadline dying mid-composition settles every unfinished entry
// with its own 504. Expiry is made deterministic by holding the only
// admission slot: requests park in the gate until the deadline fires.
func TestCoordinatorDefaultTimeoutAnswers504(t *testing.T) {
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.MaxInFlight = 1
		cfg.DefaultTimeout = 40 * time.Millisecond
	})
	sys := testSystem(t)
	p := crossRegionPath(t, f, sys)
	depart := 8 * 3600.0

	f.coord.gate.Acquire(context.Background()) // saturate admission: requests below park
	status, body := postRaw(t, f.coordTS.URL+"/v1/distribution", map[string]any{
		"path": edgeIDs(p), "depart": depart,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("distribution: status %d (%s), want 504", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body %q does not mention the deadline", body)
	}

	// With the deadline expiring at admission, the whole batch is a
	// definitive 504 envelope — the composition never started.
	status, body = postRaw(t, f.coordTS.URL+"/v1/batch", map[string]any{
		"queries": []map[string]any{
			{"kind": "distribution", "path": edgeIDs(p), "depart": depart},
		},
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("batch: status %d (%s), want 504", status, body)
	}
	f.coord.gate.Release()

	// A deadline expiring mid-composition (after admission) settles
	// every unfinished entry with its own 504 instead of leaving a
	// zero-status result behind.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results := f.coord.process(ctx, []api.BatchQuery{
		{Kind: "distribution", Path: edgeIDs(p), Depart: depart},
		{Kind: "distribution", Path: edgeIDs(p), Depart: depart},
	}, nil)
	for i, res := range results {
		if res.Status != http.StatusGatewayTimeout {
			t.Errorf("process entry %d: status %d (%s), want 504", i, res.Status, res.Error)
		}
	}
}

// TestCoordinatorForwardsBudgetToShards pins budget propagation: every
// shard leg carries an api.BudgetHeader with the leg's remaining
// budget — positive, and never more than the leg timeout, which
// already folds in the caller's end-to-end deadline.
func TestCoordinatorForwardsBudgetToShards(t *testing.T) {
	rec := &budgetRecorder{}
	legTimeout := 2 * time.Second
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.Transport = rec
		cfg.Timeout = legTimeout
		cfg.DefaultTimeout = 5 * time.Second
	})
	sys := testSystem(t)
	p := crossRegionPath(t, f, sys)
	depart := 8 * 3600.0

	status, body := postRaw(t, f.coordTS.URL+"/v1/distribution", map[string]any{
		"path": edgeIDs(p), "depart": depart,
	})
	if status != http.StatusOK {
		t.Fatalf("distribution: status %d (%s)", status, body)
	}

	rec.mu.Lock()
	budgets := append([]string(nil), rec.budgets...)
	rec.mu.Unlock()
	if len(budgets) == 0 {
		t.Fatal("no shard legs recorded")
	}
	for i, b := range budgets {
		ms, err := strconv.ParseInt(b, 10, 64)
		if err != nil || ms <= 0 {
			t.Fatalf("leg %d: budget header %q is not a positive integer", i, b)
		}
		if ms > legTimeout.Milliseconds() {
			t.Fatalf("leg %d: budget %dms exceeds the %v leg timeout", i, ms, legTimeout)
		}
	}
}

// TestCoordinatorBudgetHeaderTightens pins the client-facing side: an
// X-Budget-Ms header on the coordinator bounds the whole composition
// even with no -default-timeout configured, and garbage is a 400.
func TestCoordinatorBudgetHeaderTightens(t *testing.T) {
	f := startFleet(t, 2, nil)
	sys := testSystem(t)
	p := crossRegionPath(t, f, sys)
	depart := 8 * 3600.0

	body, err := json.Marshal(map[string]any{"path": edgeIDs(p), "depart": depart})
	if err != nil {
		t.Fatal(err)
	}
	post := func(budget string) int {
		req, err := http.NewRequest(http.MethodPost, f.coordTS.URL+"/v1/distribution", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.BudgetHeader, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post("garbage"); status != http.StatusBadRequest {
		t.Fatalf("garbage budget: status %d, want 400", status)
	}
	if status := post("30000"); status != http.StatusOK {
		t.Fatalf("generous budget: status %d, want 200", status)
	}
}

// TestCoordinatorDeadlineInOneShardWave: a one-shard wave runs on the
// composing goroutine itself, and a deadline that dies while its leg
// is still out must map exactly as it does for a fanned-out wave — the
// caller's 504, not a 503 blaming a shard that was merely slow.
func TestCoordinatorDeadlineInOneShardWave(t *testing.T) {
	ft := newFaultTransport()
	f := startFleet(t, 2, func(cfg *Config) {
		cfg.Transport = ft
		cfg.DefaultTimeout = 60 * time.Millisecond
		cfg.HedgeAfter = 10 * time.Millisecond
		cfg.Timeout = 2 * time.Second
	})
	sys := testSystem(t)
	p := crossRegionPath(t, f, sys)
	first := f.part.SegmentPath(sys.Graph, p)[0].Region
	ft.set(f.shardTS[first].URL, "hang")

	status, body := postRaw(t, f.coordTS.URL+"/v1/distribution", map[string]any{
		"path": edgeIDs(p), "depart": 8 * 3600.0,
	})
	if status != http.StatusGatewayTimeout || !strings.Contains(string(body), "deadline") {
		t.Fatalf("relay behind a hung shard: status %d (%s), want the deadline's 504", status, body)
	}
}
