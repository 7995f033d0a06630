package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/graph"
)

// slotsHeld is how many of g's evaluation slots are taken: it takes
// every free one, each at once, waits up to a second for the rest, and
// gives back what it took.
func slotsHeld(g *api.Gate) int {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	took := 0
	for took < g.MaxInFlight() && g.Acquire(ctx) {
		took++
	}
	for i := 0; i < took; i++ {
		g.Release()
	}
	return g.MaxInFlight() - took
}

var (
	deadlineSysOnce sync.Once
	deadlineSysInst *pathcost.System
	deadlineSysErr  error
)

// deadlineSystem is a private System for the deadline tests. The
// package-shared testSystem carries a query cache some tests enable,
// and a cached answer legitimately bypasses the admission gate — so a
// request these tests expect to park behind a held slot could answer
// 200 from cache instead. A system no test ever attaches a cache to
// keeps every query on the gated path.
func deadlineSystem(t *testing.T) *pathcost.System {
	t.Helper()
	deadlineSysOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		deadlineSysInst, deadlineSysErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 11, Params: params,
		})
	})
	if deadlineSysErr != nil {
		t.Fatal(deadlineSysErr)
	}
	return deadlineSysInst
}

// postWithBudget POSTs body with an api.BudgetHeader value ("" omits
// the header) and returns the status code and decoded error message
// (empty on 200).
func postWithBudget(t *testing.T, url, budget string, body any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if budget != "" {
		req.Header.Set(api.BudgetHeader, budget)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var e errorResponse
	_ = json.Unmarshal(raw, &e)
	return resp.StatusCode, e.Error
}

// TestDefaultTimeoutAnswers504 pins the deadline contract: when the
// server-imposed deadline expires before an answer is ready, every
// query endpoint answers 504 — a definitive outcome for a
// still-listening client — instead of silently writing nothing (the
// client-disconnect path) or mislabeling the timeout a 422/503. The
// expiry is made deterministic by holding the only evaluation slot:
// each request parks in the admission gate until its deadline fires.
func TestDefaultTimeoutAnswers504(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 1, DefaultTimeout: 40 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)

	s.gate.Acquire(context.Background()) // saturate the gate: every request below parks
	defer s.gate.Release()

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"distribution", ts.URL + "/v1/distribution", distributionRequest{Path: path, Depart: depart}},
		{"route", ts.URL + "/v1/route", routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}},
		{"topk", ts.URL + "/v1/topk", topkRequest{RouteRequest: routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}, K: 2}},
	}
	for _, tc := range cases {
		status, msg := postWithBudget(t, tc.url, "", tc.body)
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d (%s), want 504", tc.name, status, msg)
		} else if !strings.Contains(msg, "deadline") {
			t.Errorf("%s: 504 message %q does not mention the deadline", tc.name, msg)
		}
	}

	// A batch whose deadline expires mid-request still answers 200:
	// the envelope arrived, every entry inside carries its own 504.
	var bresp batchResponse
	status := postJSON(t, ts.URL+"/v1/batch", batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
		{Kind: "state", Path: path, Depart: depart, UILo: depart, UIHi: depart},
	}}, &bresp)
	if status != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-entry 504s", status)
	}
	for i, res := range bresp.Results {
		if res.Status != http.StatusGatewayTimeout {
			t.Errorf("batch entry %d: status %d (%s), want 504", i, res.Status, res.Error)
		}
	}
}

// TestExpiredContextRejectedAtAdmission pins the born-expired path: a
// request context whose deadline already passed is refused at the
// gate with a 504 mapping, before any evaluation work starts.
func TestExpiredContextRejectedAtAdmission(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 4})

	path, depart := densePath(t, sys)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, status, msg := s.evalDistribution(ctx, sys, &distributionRequest{Path: path, Depart: depart})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired-context distribution: status %d (%s), want 504", status, msg)
	}
	if !strings.Contains(msg, "deadline") {
		t.Fatalf("504 message %q does not mention the deadline", msg)
	}
}

// TestBudgetHeaderTightensDeadline pins the per-request budget: on a
// server with no default timeout, an X-Budget-Ms header bounds the
// request — here it expires while the request is parked behind a
// saturated MaxInFlight gate, which must answer 504, not hang and not
// write nothing.
func TestBudgetHeaderTightensDeadline(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	body := distributionRequest{Path: path, Depart: depart}

	// Hold the only evaluation slot so the budgeted request queues.
	s.gate.Acquire(context.Background())
	status, msg := postWithBudget(t, ts.URL+"/v1/distribution", "40", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("budgeted request behind a full gate: status %d (%s), want 504", status, msg)
	}
	s.gate.Release()

	// With the slot free and a generous budget the same request
	// answers normally — the header codepath must not distort success.
	if status, msg := postWithBudget(t, ts.URL+"/v1/distribution", "30000", body); status != http.StatusOK {
		t.Fatalf("generous budget: status %d (%s), want 200", status, msg)
	}
}

// TestHugeBudgetHeaderCannotWidenDeadline pins "tightens, never widens"
// at the top of the header's range: a budget too large for a
// time.Duration means no tighter than the default. It used to wrap
// around — 9223372036855 ms to about −2562047 h, which reads as "no
// deadline" — so a request parked behind a held slot outlived the 40 ms
// default and hung. The client's own timeout keeps that failure clean.
func TestHugeBudgetHeaderCannotWidenDeadline(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 1, DefaultTimeout: 40 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	path, depart := densePath(t, sys)
	body, err := json.Marshal(distributionRequest{Path: path, Depart: depart})
	if err != nil {
		t.Fatal(err)
	}

	s.gate.Acquire(context.Background()) // hold the only slot: only the deadline can end the request
	defer s.gate.Release()
	client := &http.Client{Timeout: 2 * time.Second}
	for _, budget := range []string{"9223372036855", "18446744073710"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/distribution", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.BudgetHeader, budget)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("budget %s: %v: the header widened the 40ms default deadline", budget, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("budget %s: status %d, want the default deadline's 504", budget, resp.StatusCode)
		}
	}
}

// expiringCtx is a request context whose deadline dies after a fixed
// number of Err reads — "the budget ran out mid-search" as an event a
// test can place exactly, where a real 5 ms timer races the search.
// Done never fires, so admission takes its slot and only the
// evaluation's own checks can notice.
type expiringCtx struct {
	context.Context
	live  int64
	reads atomic.Int64
}

func (c *expiringCtx) Err() error {
	if c.reads.Add(1) > c.live {
		return context.DeadlineExceeded
	}
	return nil
}

// farPair returns a pair whose fastest path has at least hops edges,
// with twice its free-flow time as the budget: a search of hundreds of
// expansions.
func farPair(t *testing.T, sys *pathcost.System, hops int) (src, dst int64, budget float64) {
	t.Helper()
	nv := sys.Graph.NumVertices()
	for s := 0; s < nv; s++ {
		dists := sys.Graph.ShortestDistances(pathcost.VertexID(s), graph.FreeFlowWeight)
		for d := nv - 1; d >= 0; d-- {
			if d == s || dists[d] > 1e300 {
				continue
			}
			if p, ff, err := sys.Router().FastestPath(pathcost.VertexID(s), pathcost.VertexID(d)); err == nil && len(p) >= hops {
				return int64(s), int64(d), 2 * ff
			}
		}
	}
	t.Fatalf("no pair %d hops apart", hops)
	return 0, 0, 0
}

// TestRoutingHonoursDeadlineAfterAdmission pins deadline propagation
// into the routing DFS: a budget that expires once the request holds
// its evaluation slot stops the search at its next expansion, answers
// 504 through the usual mapping, and gives the slot back. Before the
// search took a context, the request ran to its expansion cap with the
// slot held.
func TestRoutingHonoursDeadlineAfterAdmission(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 2})
	src, dst, budget := farPair(t, sys, 12)
	depart := 8 * 3600.0
	full, err := sys.Route(pathcost.VertexID(src), pathcost.VertexID(dst), depart, budget, pathcost.OD)
	if err != nil {
		t.Fatal(err)
	}
	// The context is read once at admission and once per expansion;
	// let three expansions through.
	const expansions = 3
	if full.Explored < 10*expansions {
		t.Fatalf("the unbounded search explored only %d prefixes; the pair is too easy to show a cut", full.Explored)
	}
	route := routeRequest{Source: src, Dest: dst, Depart: depart, Budget: budget}
	for name, eval := range map[string]func(ctx context.Context) (int, string){
		"route": func(ctx context.Context) (int, string) {
			_, status, msg := s.evalRoute(ctx, sys, &route)
			return status, msg
		},
		"topk": func(ctx context.Context) (int, string) {
			_, status, msg := s.evalTopK(ctx, sys, &topkRequest{RouteRequest: route, K: 3})
			return status, msg
		},
	} {
		ctx := &expiringCtx{Context: context.Background(), live: 1 + expansions}
		status, msg := eval(ctx)
		if status != http.StatusGatewayTimeout || msg != "deadline exceeded" {
			t.Errorf("%s: status %d (%q), want 504 deadline exceeded", name, status, msg)
		}
		// Admission, the expansions let through, the one that saw the
		// dead deadline, and the status mapping's own look.
		if got := ctx.reads.Load(); got != 1+expansions+2 {
			t.Errorf("%s: the context was read %d times, want %d: the search did not stop at the first expansion past the deadline",
				name, got, 1+expansions+2)
		}
		if n := slotsHeld(s.gate); n != 0 {
			t.Errorf("%s: %d evaluation slots still held after the 504", name, n)
		}
	}
}

// TestBatchDeadlineAfterFirstEntry pins the deadline of a batch that
// answers its entries in order: a budget that dies once the first entry
// is answered leaves that entry its 200, answers every entry after it
// 504 at admission, whatever its kind, and leaves no evaluation slot
// held.
func TestBatchDeadlineAfterFirstEntry(t *testing.T) {
	sys := deadlineSystem(t)
	s := New(sys, Config{MaxInFlight: 2})
	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)
	first := batchQuery{Kind: "distribution", Path: path, Depart: depart}

	// How many times the first entry alone reads its context.
	alone := &expiringCtx{Context: context.Background(), live: math.MaxInt64}
	if res, _, _ := s.evalBatch(alone, []batchQuery{first}); res[0].Status != http.StatusOK {
		t.Fatalf("the first entry alone: %+v", res[0])
	}
	ctx := &expiringCtx{Context: context.Background(), live: alone.reads.Load()}
	results, status, _ := s.evalBatch(ctx, []batchQuery{
		first,
		{Kind: "distribution", Path: path[:len(path)-1], Depart: depart},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
		{Kind: "topk", Source: src, Dest: dst, Depart: depart, Budget: budget, K: 2},
		{Kind: "state", Path: path, Depart: depart, UILo: depart, UIHi: depart},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d, want the 200 envelope", status)
	}
	if results[0].Status != http.StatusOK || results[0].Distribution == nil {
		t.Fatalf("the entry answered before the deadline: %+v", results[0])
	}
	for i, r := range results[1:] {
		if r.Status != http.StatusGatewayTimeout || r.Error != "deadline exceeded" {
			t.Errorf("entry %d after the deadline: status %d (%q), want 504 deadline exceeded", i+1, r.Status, r.Error)
		}
	}
	if n := slotsHeld(s.gate); n != 0 {
		t.Fatalf("%d evaluation slot(s) still held after the batch", n)
	}
}

// TestBudgetHeaderGarbageRejected pins loud rejection: a budget that
// does not parse as a positive integer is a 400, never silently
// treated as unlimited.
func TestBudgetHeaderGarbageRejected(t *testing.T) {
	sys := testSystem(t)
	s := New(sys, Config{MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	for _, bad := range []string{"soon", "-5", "0", "1.5"} {
		status, msg := postWithBudget(t, ts.URL+"/v1/distribution", bad,
			distributionRequest{Path: path, Depart: depart})
		if status != http.StatusBadRequest {
			t.Errorf("budget %q: status %d (%s), want 400", bad, status, msg)
		}
	}
}

// TestSlowLorisConnectionReaped pins the listener hygiene bound: a
// connection that dribbles its request header forever is cut off at
// api.ServeReadHeaderTimeout instead of holding a connection (and
// eventually the whole accept loop's file descriptors) hostage.
func TestSlowLorisConnectionReaped(t *testing.T) {
	saved := api.ServeReadHeaderTimeout
	api.ServeReadHeaderTimeout = 150 * time.Millisecond
	defer func() { api.ServeReadHeaderTimeout = saved }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- api.ServeListener(ctx, http.NotFoundHandler(), ln, 0) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Send a partial request line and then stall, never finishing the
	// headers — the classic slow-loris hold.
	if _, err := conn.Write([]byte("POST /v1/stats HTTP/1.1\r\nHost: x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || err == io.EOF {
		// EOF is fine too: the server closed us. What must NOT happen
		// is the read deadline firing with the connection still open.
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after ReadHeaderTimeout %v: slow-loris hold not reaped",
			5*time.Second, api.ServeReadHeaderTimeout)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeListener: %v", err)
	}
}
