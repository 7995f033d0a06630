package shard

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// replicatedFleet is a fleet where every region is served by a group
// of identical replicas. replicaTS[r][i] is region r's i-th replica.
type replicatedFleet struct {
	*fleet
	replicaTS [][]*httptest.Server
}

// startReplicatedFleet boots k regions with n replicas each, every
// replica of a region serving the same shard model, plus the union
// reference server and a coordinator over the groups.
func startReplicatedFleet(t testing.TB, k, n int, extra func(*Config)) *replicatedFleet {
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
	rf := &replicatedFleet{fleet: &fleet{part: part, split: split}}
	cfg := Config{ProbeInterval: -1}
	for _, ss := range split.Shards {
		h := server.New(ss, server.Config{MaxInFlight: 4}).Handler()
		var group []*httptest.Server
		groupURL := ""
		for i := 0; i < n; i++ {
			ts := httptest.NewServer(h)
			group = append(group, ts)
			if i > 0 {
				groupURL += "|"
			}
			groupURL += ts.URL
		}
		rf.replicaTS = append(rf.replicaTS, group)
		rf.shardTS = append(rf.shardTS, group[0])
		cfg.Shards = append(cfg.Shards, groupURL)
	}
	rf.unionTS = httptest.NewServer(server.New(split.Union, server.Config{MaxInFlight: 4}).Handler())
	if extra != nil {
		extra(&cfg)
	}
	rf.coord, err = New(sys.Graph, part, cfg)
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	rf.coordTS = httptest.NewServer(rf.coord.Handler())
	t.Cleanup(func() {
		rf.coordTS.Close()
		rf.unionTS.Close()
		for _, group := range rf.replicaTS {
			for _, ts := range group {
				ts.Close()
			}
		}
	})
	return rf
}

// assertCoordinatorMatchesUnion drives the full mixed workload —
// in-region and cross-region distribution queries — through the
// coordinator and the union reference server and requires status 200
// and byte-identical bodies on every single one.
func assertCoordinatorMatchesUnion(t *testing.T, rf *replicatedFleet, nPaths int, seed int64) {
	t.Helper()
	sys := testSystem(t)
	for i, p := range queryPaths(t, sys, nPaths, seed) {
		req := api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600}
		ucode, ubody := postRaw(t, rf.unionTS.URL+"/v1/distribution", req)
		ccode, cbody := postRaw(t, rf.coordTS.URL+"/v1/distribution", req)
		if ucode != http.StatusOK {
			t.Fatalf("path %d: union = %d: %s", i, ucode, ubody)
		}
		if ccode != http.StatusOK {
			t.Fatalf("path %d: coordinator = %d: %s", i, ccode, cbody)
		}
		ubody = normalize(t, "distribution", ubody)
		cbody = normalize(t, "distribution", cbody)
		if !bytes.Equal(ubody, cbody) {
			t.Fatalf("path %d: coordinator differs from union:\n coord: %s\n union: %s", i, cbody, ubody)
		}
	}
}

// TestReplicaGroupServesIdenticallyToUnion: the healthy replicated
// fleet is byte-identical to the union model, and the round-robin
// cursor actually spreads legs across both replicas of each group.
func TestReplicaGroupServesIdenticallyToUnion(t *testing.T) {
	rf := startReplicatedFleet(t, 2, 2, nil)
	assertCoordinatorMatchesUnion(t, rf, 40, 57)
	for r, ss := range rf.coord.shards {
		for i, rs := range ss.replicas {
			if rs.calls.Load() == 0 {
				t.Errorf("region %d replica %d never received a leg: round-robin is not rotating", r, i)
			}
		}
	}
}

// TestKilledReplicaDegradesNothing is the failover differential test:
// with one replica of EVERY region dead, the full workload must still
// come back byte-identical to the union model with zero non-200s —
// sibling replicas absorb the legs.
func TestKilledReplicaDegradesNothing(t *testing.T) {
	ft := newFaultTransport()
	rf := startReplicatedFleet(t, 2, 2, func(cfg *Config) {
		cfg.Transport = ft
		cfg.HedgeAfter = 25 * time.Millisecond
		cfg.Timeout = 2 * time.Second
	})
	for _, group := range rf.replicaTS {
		ft.set(group[0].URL, "kill")
	}
	assertCoordinatorMatchesUnion(t, rf, 40, 58)

	// The dead replicas' breakers opened after breakerThreshold
	// consecutive failures, so the tail of the workload never even
	// dialed them; the survivors took every leg.
	now := time.Now()
	for r, ss := range rf.coord.shards {
		dead, live := ss.replicas[0], ss.replicas[1]
		if dead.breakerTrips.Load() == 0 {
			t.Errorf("region %d: dead replica's breaker never tripped", r)
		}
		if dead.admitted(now) {
			t.Errorf("region %d: dead replica still admitted", r)
		}
		if dead.healthy() {
			t.Errorf("region %d: dead replica still marked healthy", r)
		}
		if !ss.healthy() {
			t.Errorf("region %d: group unhealthy with a live sibling", r)
		}
		if live.callFailures.Load() != 0 {
			t.Errorf("region %d: surviving replica recorded %d failures", r, live.callFailures.Load())
		}
	}

	// Revive the dead replicas: after the cooldown a half-open trial
	// leg succeeds and closes the breaker.
	for _, group := range rf.replicaTS {
		ft.set(group[0].URL, "")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		assertCoordinatorMatchesUnion(t, rf, 4, 59)
		closed := true
		for _, ss := range rf.coord.shards {
			if !ss.replicas[0].admitted(time.Now()) || ss.replicas[0].consecFails.Load() != 0 {
				closed = false
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breakers never closed after the replicas revived")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestProbeClosesBreakerEarly drives probeOnce over the wire through
// both probe rows of the transition table: breakerThreshold failed
// probes of a dead replica open its breaker, and once it revives one
// successful probe closes it — no query traffic needed.
func TestProbeClosesBreakerEarly(t *testing.T) {
	ft := newFaultTransport()
	rf := startReplicatedFleet(t, 2, 2, func(cfg *Config) { cfg.Transport = ft })
	rs := rf.coord.shards[0].replicas[0]
	ft.set(rs.base, "kill")
	for i := 0; i < breakerThreshold; i++ {
		rf.coord.probeOnce(t.Context(), rs)
	}
	if rs.breakerTrips.Load() != 1 || rs.openUntil.Load() == 0 || rs.healthy() {
		t.Fatalf("%d failed probes: trips %d, open until %d, healthy %v", breakerThreshold,
			rs.breakerTrips.Load(), rs.openUntil.Load(), rs.healthy())
	}
	ft.set(rs.base, "")
	rf.coord.probeOnce(t.Context(), rs)
	if rs.openUntil.Load() != 0 || !rs.healthy() {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestBreakerStateMachine plays the transition table of
// docs/ARCHITECTURE.md ("Failure domains & recovery") through observe,
// one row per observation at a fixed instant, on a two-replica group.
// admitted is whether the breaker lets a leg through at the row's
// instant before the observation; fails, trips and open (the instant
// the breaker opens until, zero when closed) are the replica's state
// after it; cands is the size of the group's candidate set then.
func TestBreakerStateMachine(t *testing.T) {
	ss := &shardState{replicas: []*replicaState{{base: "a"}, {base: "b"}}}
	t0 := time.Unix(1000, 0)
	cool := breakerCooldown
	t1 := t0.Add(10 * cool)
	failed := errors.New("connection refused")
	rows := []struct {
		name     string
		source   string // "leg" or "probe": both feed observe
		replica  int
		err      error
		at       time.Time
		admitted bool
		fails    uint32
		trips    uint64
		open     time.Time
		cands    int
	}{
		{"a failure below threshold", "leg", 0, failed, t0, true, 1, 0, time.Time{}, 2},
		{"a second failure", "leg", 0, failed, t0, true, 2, 0, time.Time{}, 2},
		{"a success resets the count", "leg", 0, nil, t0, true, 0, 0, time.Time{}, 2},
		{"a failure after the reset", "leg", 0, failed, t0, true, 1, 0, time.Time{}, 2},
		{"a second failure after the reset", "leg", 0, failed, t0, true, 2, 0, time.Time{}, 2},
		{"the threshold failure opens the breaker", "leg", 0, failed, t0, true, 3, 1, t0.Add(cool), 1},
		{"the failed half-open trial re-opens it", "leg", 0, failed, t0.Add(cool), true, 4, 2, t0.Add(2 * cool), 1},
		{"a successful probe closes it inside the cooldown", "probe", 0, nil, t0.Add(cool + cool/2), false, 0, 2, time.Time{}, 2},
		{"a failed probe counts", "probe", 0, failed, t1, true, 1, 2, time.Time{}, 2},
		{"a second failed probe", "probe", 0, failed, t1, true, 2, 2, time.Time{}, 2},
		{"three failed probes open the breaker", "probe", 0, failed, t1, true, 3, 3, t1.Add(cool), 1},
		{"the sibling fails once", "leg", 1, failed, t1, true, 1, 0, time.Time{}, 1},
		{"the sibling fails twice", "leg", 1, failed, t1, true, 2, 0, time.Time{}, 1},
		{"every breaker open: the group fails open", "leg", 1, failed, t1, true, 3, 1, t1.Add(cool), 2},
		{"the successful half-open trial closes it", "leg", 0, nil, t1.Add(cool), true, 0, 3, time.Time{}, 2},
	}
	for i, r := range rows {
		rs := ss.replicas[r.replica]
		if got := rs.admitted(r.at); got != r.admitted {
			t.Fatalf("row %d (%s): admitted before = %v, want %v", i, r.name, got, r.admitted)
		}
		rs.observe(r.err, r.at)
		var open time.Time
		if n := rs.openUntil.Load(); n != 0 {
			open = time.Unix(0, n)
		}
		if rs.consecFails.Load() != r.fails || rs.breakerTrips.Load() != r.trips || !open.Equal(r.open) {
			t.Fatalf("row %d (%s, %s): fails %d trips %d open %v, want %d %d %v", i, r.name, r.source,
				rs.consecFails.Load(), rs.breakerTrips.Load(), open, r.fails, r.trips, r.open)
		}
		if rs.healthy() != (r.fails == 0) {
			t.Fatalf("row %d (%s): healthy = %v with %d consecutive failures", i, r.name, rs.healthy(), r.fails)
		}
		if got := len(ss.candidates(r.at)); got != r.cands {
			t.Fatalf("row %d (%s): %d candidates, want %d", i, r.name, got, r.cands)
		}
	}
}

// TestReplicaRotationIgnoresStatsReads: reading /v1/stats must not move
// the round-robin cursor. Alternating one stats read with one query
// would otherwise step the cursor twice per query and pin every leg to
// the same replica.
func TestReplicaRotationIgnoresStatsReads(t *testing.T) {
	rf := startReplicatedFleet(t, 2, 2, nil)
	queries, regions := regionQueries(t, rf.fleet)
	for round := 0; round < 8; round++ {
		resp, err := http.Get(rf.coordTS.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if code, body := postRaw(t, rf.coordTS.URL+"/v1/distribution", api.DistributionRequest{
			Path: queries[0].Path, Depart: queries[0].Depart,
		}); code != http.StatusOK {
			t.Fatalf("round %d: distribution = %d: %s", round, code, body)
		}
	}
	for i, rs := range rf.coord.shards[regions[0]].replicas {
		if rs.calls.Load() == 0 {
			t.Errorf("region %d replica %d received no leg in 8 queries", regions[0], i)
		}
	}
}

// TestReplicaShedFailsOverAndTripsBreaker: a replica answering 429 to
// every batch is a failed leg like any other non-200. Its sibling
// answers every query, and its breaker opens — the cooldown is the
// back-off the 429's Retry-After asks for.
func TestReplicaShedFailsOverAndTripsBreaker(t *testing.T) {
	ft := newFaultTransport()
	rf := startReplicatedFleet(t, 2, 2, func(cfg *Config) {
		cfg.Transport = ft
		cfg.HedgeAfter = 25 * time.Millisecond
		cfg.Timeout = 2 * time.Second
	})
	ft.set(rf.replicaTS[0][0].URL, "shed")
	assertCoordinatorMatchesUnion(t, rf, 40, 60)

	shedding, live := rf.coord.shards[0].replicas[0], rf.coord.shards[0].replicas[1]
	if shedding.breakerTrips.Load() == 0 {
		t.Error("the shedding replica's breaker never opened")
	}
	if shedding.healthy() || shedding.callFailures.Load() == 0 {
		t.Errorf("shedding replica healthy %v after %d failed legs", shedding.healthy(), shedding.callFailures.Load())
	}
	if !live.healthy() || live.callFailures.Load() != 0 {
		t.Errorf("sibling recorded %d failures", live.callFailures.Load())
	}
}
