package shard

import (
	"bytes"
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
		if dead.healthy.Load() {
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

// TestProbeClosesBreakerEarly: a revived replica does not have to wait
// for query traffic — one successful health probe closes its breaker.
func TestProbeClosesBreakerEarly(t *testing.T) {
	rf := startReplicatedFleet(t, 2, 2, nil)
	rs := rf.coord.shards[0].replicas[0]
	// Fixed instants inside the cooldown: only the probe can readmit the
	// replica, however long the test takes.
	t0 := time.Unix(1000, 0)
	for i := 0; i < breakerThreshold; i++ {
		rs.noteFailure(t0)
	}
	if rs.admitted(t0) {
		t.Fatal("breaker did not open after threshold failures")
	}
	rf.coord.probeOnce(t.Context(), rs)
	if !rs.admitted(t0) || !rs.healthy.Load() {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestBreakerStateMachine exercises the replica breaker as a pure
// state machine: closed until threshold consecutive failures, open for
// the cooldown, half-open trial afterwards, re-opened by a failed
// trial, closed by a successful one, and a success anywhere resets the
// consecutive count.
func TestBreakerStateMachine(t *testing.T) {
	rs := &replicaState{}
	rs.healthy.Store(true)
	t0 := time.Unix(1000, 0)

	rs.noteFailure(t0)
	rs.noteFailure(t0)
	if !rs.admitted(t0) {
		t.Fatal("breaker open below threshold")
	}
	rs.noteSuccess()
	rs.noteFailure(t0)
	rs.noteFailure(t0)
	if !rs.admitted(t0) {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	rs.noteFailure(t0)
	if rs.admitted(t0.Add(breakerCooldown / 2)) {
		t.Fatal("breaker closed after threshold consecutive failures")
	}
	if rs.breakerTrips.Load() != 1 {
		t.Fatalf("breakerTrips = %d, want 1", rs.breakerTrips.Load())
	}
	// Cooldown elapsed: half-open, one trial admitted.
	half := t0.Add(breakerCooldown)
	if !rs.admitted(half) {
		t.Fatal("breaker still closed to the half-open trial")
	}
	// Failed trial re-opens for a fresh cooldown.
	rs.noteFailure(half)
	if rs.admitted(half.Add(breakerCooldown / 2)) {
		t.Fatal("failed half-open trial did not re-open the breaker")
	}
	// Successful trial closes it for good.
	rs.noteSuccess()
	if !rs.admitted(half) || rs.consecFails.Load() != 0 {
		t.Fatal("successful trial did not close the breaker")
	}
}
