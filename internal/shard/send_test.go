package shard

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRedirectFailsTheLeg: shards never redirect, so a 3xx is a failed
// leg like any other non-200 — never followed — and the call retries on
// the next replica. The region's group is a stub that answers every
// batch 307 beside the real shard; whichever the rotation tries first,
// the entry answers 200, and the stub's redirect target is never asked.
func TestRedirectFailsTheLeg(t *testing.T) {
	f := startFleet(t, 3, nil)
	queries, regions := regionQueries(t, f)
	victim := regions[0]
	var mu sync.Mutex
	hits := map[string]int{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		if r.URL.Path == "/v1/batch" {
			http.Redirect(w, r, "/moved", http.StatusTemporaryRedirect)
			return
		}
		http.Error(w, "followed a redirect", http.StatusInternalServerError)
	}))
	defer stub.Close()
	cfg := Config{ProbeInterval: -1}
	for r, ts := range f.shardTS {
		cfg.Shards = append(cfg.Shards, ts.URL)
		if r == victim {
			cfg.Shards[r] = stub.URL + "|" + ts.URL
		}
	}
	coord, err := New(testSystem(t).Graph, f.part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	for i := 0; i < 4; i++ { // both rotation orders
		if res := postBatch(t, ts.URL, queries[:1]); res[0].Status != http.StatusOK {
			t.Fatalf("request %d: %d (%s), want the sibling replica's 200", i, res[0].Status, res[0].Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	redirected := coord.shards[victim].replicas[0]
	if hits["/v1/batch"] == 0 || hits["/moved"] != 0 {
		t.Fatalf("stub saw %v: want batch calls and no followed redirect", hits)
	}
	if got := redirected.callFailures.Load(); got != uint64(hits["/v1/batch"]) {
		t.Fatalf("%d of the stub's %d 307s counted as failed legs", got, hits["/v1/batch"])
	}
}

// authRecorder records the Authorization header of every request it
// passes on to a faultTransport.
type authRecorder struct {
	mu   sync.Mutex
	auth map[string]bool
	next http.RoundTripper
}

func (a *authRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	a.mu.Lock()
	a.auth[req.URL.Path+" "+req.Header.Get("Authorization")] = true
	a.mu.Unlock()
	return a.next.RoundTrip(req)
}

// TestUserinfoIsAuthorized: a shard URL with userinfo is authorized the
// way http.Client authorizes it — Basic credentials on every leg and
// probe — and a failed leg's 503 names the URL with its password
// masked.
func TestUserinfoIsAuthorized(t *testing.T) {
	ft := newFaultTransport()
	rec := &authRecorder{auth: map[string]bool{}, next: ft}
	f := startFleet(t, 3, func(cfg *Config) {
		cfg.Transport = rec
		for r := range cfg.Shards {
			cfg.Shards[r] = strings.Replace(cfg.Shards[r], "http://", "http://ops:s3cret@", 1)
		}
	})
	queries, regions := regionQueries(t, f)
	if res := postBatch(t, f.coordTS.URL, queries[:1]); res[0].Status != http.StatusOK {
		t.Fatalf("authorized leg: %d (%s)", res[0].Status, res[0].Error)
	}
	rs := f.coord.shards[regions[0]].replicas[0]
	f.coord.probeOnce(t.Context(), rs)
	const basic = "Basic b3BzOnMzY3JldA==" // ops:s3cret
	rec.mu.Lock()
	if !rec.auth["/v1/batch "+basic] || !rec.auth["/v1/stats "+basic] || len(rec.auth) != 2 {
		t.Errorf("requests carried %v, want %q on every leg and probe", rec.auth, basic)
	}
	rec.mu.Unlock()

	ft.set(f.shardTS[regions[0]].URL, "kill")
	defer ft.set(f.shardTS[regions[0]].URL, "")
	host := strings.TrimPrefix(f.shardTS[regions[0]].URL, "http://")
	res := postBatch(t, f.coordTS.URL, queries[:1])
	want := fmt.Sprintf(`shard %d unavailable: Post "http://ops:***@%s/v1/batch": dial tcp %s: connection refused (injected)`,
		regions[0], host, host)
	if res[0].Status != http.StatusServiceUnavailable || res[0].Error != want {
		t.Errorf("dead shard: %d\n%q, want 503\n%q", res[0].Status, res[0].Error, want)
	}
}
