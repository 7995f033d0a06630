package pathcost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// freshSystem trains a private small system for tests that mutate
// system state (probe hooks, cache toggling) and therefore must not
// share the package-wide testSystem fixture.
func freshSystem(t testing.TB) *System {
	t.Helper()
	params := DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	s, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 2000, Seed: 5, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pollUntil waits up to 5 s for cond; it marks the test failed on
// timeout but returns (Errorf, not Fatalf) so callers on any
// goroutine can still unblock their peers before bailing out.
func pollUntil(t *testing.T, cond func() bool, msg string) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timeout waiting for %s", msg)
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// parkCounter is a context that never ends and counts its Done calls.
// The query path reads Done in one place, where a singleflight follower
// parks behind the leader, so parked is the number of parked followers.
type parkCounter struct {
	context.Context
	parked atomic.Int32
}

func newParkCounter() *parkCounter { return &parkCounter{Context: context.Background()} }

func (c *parkCounter) Done() <-chan struct{} {
	c.parked.Add(1)
	return c.Context.Done()
}

// densePath returns a trajectory-backed query path and a departure
// time inside its populated α-interval.
func densePath(t testing.TB, s *System) (Path, float64) {
	t.Helper()
	for _, card := range []int{4, 3, 2} {
		if dense := s.DensePaths(card, 10); len(dense) > 0 {
			lo, _ := s.Params.IntervalBounds(dense[0].Interval)
			return dense[0].Path, lo + 1
		}
	}
	t.Fatal("no dense paths in test workload")
	return nil, 0
}

// TestPathDistributionSingleflightExactlyOnce proves the stampede fix
// end to end: K concurrent misses on one (path, α-interval, method)
// key run exactly one underlying CostDistribution computation, and
// every caller receives the same shared result. The computation count
// is observed via the compute probe hook; determinism comes from
// blocking the leader inside the probe until every follower is parked
// on the in-flight call.
func TestPathDistributionSingleflightExactlyOnce(t *testing.T) {
	s := freshSystem(t)
	s.EnableQueryCache(64)
	p, depart := densePath(t, s)
	ctx := newParkCounter()

	const callers = 16
	var execs atomic.Int32
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	s.computeProbe = func() {
		if execs.Add(1) == 1 {
			close(leaderIn)
			<-release
		}
	}

	var wg sync.WaitGroup
	results := make([]*QueryResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.PathDistributionGated(ctx, p, depart, OD, nil, nil)
		}(i)
	}

	<-leaderIn
	pollUntil(t, func() bool { return ctx.parked.Load() == callers-1 },
		"all followers parked on the flight")
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("%d concurrent misses ran %d computations, want exactly 1", callers, n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different result object; stampede survivors should share one", i)
		}
	}

	// The flight's product must now be resident: a fresh query is a
	// pure cache hit and runs no further computation.
	if _, err := s.PathDistribution(p, depart, OD); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("post-flight query recomputed (%d executions)", n)
	}
	st, ok := s.QueryCacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("expected a cache hit after the flight, stats %+v ok=%v", st, ok)
	}
}

// TestPathDistributionGatedChargesLeadersOnly: the computation gate
// must be acquired exactly once per underlying computation — never by
// cache hits, never by singleflight followers — so serving layers can
// bound CPU work without charging parked requests.
func TestPathDistributionGatedChargesLeadersOnly(t *testing.T) {
	s := freshSystem(t)
	s.EnableQueryCache(64)
	p, depart := densePath(t, s)
	ctx := newParkCounter()

	var acquires, releases atomic.Int32
	acquire := func() bool { acquires.Add(1); return true }
	release := func() { releases.Add(1) }

	const callers = 12
	leaderIn := make(chan struct{})
	releaseCh := make(chan struct{})
	var execs atomic.Int32
	s.computeProbe = func() {
		if execs.Add(1) == 1 {
			close(leaderIn)
			<-releaseCh
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.PathDistributionGated(ctx, p, depart, OD, acquire, release); err != nil {
				t.Error(err)
			}
		}()
	}
	<-leaderIn
	pollUntil(t, func() bool { return ctx.parked.Load() == callers-1 },
		"all followers parked")
	close(releaseCh)
	wg.Wait()

	if a, r := acquires.Load(), releases.Load(); a != 1 || r != 1 {
		t.Fatalf("gate acquired %d / released %d times for %d concurrent misses, want 1/1", a, r, callers)
	}

	// Cache hit: the gate must not be touched at all.
	if _, err := s.PathDistributionGated(nil, p, depart, OD, acquire, release); err != nil {
		t.Fatal(err)
	}
	if a := acquires.Load(); a != 1 {
		t.Fatalf("cache hit acquired the gate (total %d)", a)
	}

	// A refused gate aborts with ErrGateRejected.
	p2, depart2 := densePath(t, s)
	_, err := s.PathDistributionGated(nil, p2, depart2+s.Params.IntervalSeconds(), RD,
		func() bool { return false }, func() {})
	if !errors.Is(err, ErrGateRejected) {
		t.Fatalf("refused gate returned %v, want ErrGateRejected", err)
	}
}

// TestPathDistributionGatedFollowerRetriesInheritedRejection: when a
// flight leader's own acquire refuses (its client vanished while
// queued), a parked follower must not surface that foreign rejection —
// it retries, becomes the new leader, and its own acquire decides.
func TestPathDistributionGatedFollowerRetriesInheritedRejection(t *testing.T) {
	s := freshSystem(t)
	s.EnableQueryCache(64)
	p, depart := densePath(t, s)
	followerCtx := newParkCounter()

	leaderErr := make(chan error, 1)
	holding := make(chan struct{})
	go func() {
		// Leader: its acquire runs inside the flight, so entering it
		// means the flight is held. It refuses its slot, but only once
		// the follower is parked — so the rejection is guaranteed to be
		// inherited.
		_, err := s.PathDistributionGated(nil, p, depart, OD, func() bool {
			close(holding)
			deadline := time.Now().Add(5 * time.Second)
			for followerCtx.parked.Load() != 1 && !time.Now().After(deadline) {
				time.Sleep(time.Millisecond)
			}
			return false
		}, nil)
		leaderErr <- err
	}()

	<-holding
	var ownAcquires atomic.Int32
	res, err := s.PathDistributionGated(followerCtx, p, depart, OD,
		func() bool { ownAcquires.Add(1); return true }, nil)
	if err != nil || res == nil {
		t.Fatalf("follower surfaced inherited rejection: res=%v err=%v", res, err)
	}
	if n := ownAcquires.Load(); n != 1 {
		t.Fatalf("follower's own acquire consulted %d times, want exactly 1 (on retry as leader)", n)
	}
	if err := <-leaderErr; !errors.Is(err, ErrGateRejected) {
		t.Fatalf("leader got %v, want its own ErrGateRejected", err)
	}
}

// TestConcurrentQueriesWhileTogglingCache is the -race hammer: many
// goroutines issue PathDistribution and Route queries while the main
// goroutine repeatedly enables, resizes and disables the query cache
// and snapshots its stats. Before qcache became an atomic pointer
// this was a data race (and could nil-panic between the load and the
// use); now every interleaving must produce correct answers.
func TestConcurrentQueriesWhileTogglingCache(t *testing.T) {
	s := freshSystem(t)
	p, depart := densePath(t, s)

	// A reachable routing pair, as in cmd/pathcost.
	src := VertexID(s.Graph.NumVertices() / 3)
	dists := s.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	dst := VertexID(-1)
	best := 0.0
	for v, d := range dists {
		if VertexID(v) != src && d > best && d < 600 {
			best = d
			dst = VertexID(v)
		}
	}

	var want float64
	if res, err := s.PathDistribution(p, depart, OD); err != nil {
		t.Fatal(err)
	} else {
		want = res.Dist.Mean()
	}

	const queriers = 8
	const iters = 25
	var wg sync.WaitGroup
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				m := []Method{OD, HP, LB}[n%3]
				res, err := s.PathDistribution(p, depart, m)
				if err != nil {
					t.Errorf("querier %d: %v", i, err)
					return
				}
				// Tolerance, not equality: independent evaluations may
				// associate float sums differently at the last ulp.
				if m == OD && math.Abs(res.Dist.Mean()-want) > 1e-9*want {
					t.Errorf("querier %d: OD mean %v, want %v", i, res.Dist.Mean(), want)
					return
				}
				if i < 2 && n%10 == 0 && dst >= 0 {
					if _, err := s.Route(src, dst, depart, best*2, OD); err != nil {
						t.Errorf("querier %d route: %v", i, err)
						return
					}
				}
			}
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for toggles := 0; ; toggles++ {
		select {
		case <-done:
			return
		default:
		}
		switch toggles % 3 {
		case 0:
			s.EnableQueryCache(64)
		case 1:
			s.EnableQueryCache(8) // resize: fresh cache, tiny capacity
		case 2:
			s.EnableQueryCache(0) // disable
		}
		s.QueryCacheStats()
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRandomQueryPathEmptyGraph: an edgeless graph must yield an
// error, not a panic inside the caller's rand source (rand.Intn
// panics on a non-positive bound).
func TestRandomQueryPathEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Freeze()
	s := &System{Graph: g}
	rnd := func(n int) int {
		if n <= 0 {
			panic(fmt.Sprintf("rnd called with non-positive bound %d", n))
		}
		return 0
	}
	p, err := s.RandomQueryPath(3, rnd)
	if err == nil {
		t.Fatalf("RandomQueryPath on empty graph returned %v, want error", p)
	}
}
