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
// system state (cache toggling) and therefore must not share the
// package-wide testSystem fixture.
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

// TestPathDistributionGatedContract pins the distribution read path:
// one query-cache probe, and on a miss one gated computation whose
// answer is stored. Run it under -race.
func TestPathDistributionGatedContract(t *testing.T) {
	s := freshSystem(t)
	p, depart := densePath(t, s)
	// Uncached reference, computed before any cache exists.
	ref, err := s.PathDistribution(p, depart, OD)
	if err != nil {
		t.Fatal(err)
	}
	var acquires, releases atomic.Int32
	acquire := func() bool { acquires.Add(1); return true }
	release := func() { releases.Add(1) }

	t.Run("sequential", func(t *testing.T) {
		s.EnableQueryCache(64)
		acquires.Store(0)
		releases.Store(0)

		// A refused acquire fails the query and caches nothing.
		_, err := s.PathDistributionGated(nil, p, depart, OD, func() bool { return false }, release)
		if !errors.Is(err, ErrGateRejected) {
			t.Fatalf("refused gate returned %v, want ErrGateRejected", err)
		}
		if st, _ := s.QueryCacheStats(); st.Entries != 0 || releases.Load() != 0 {
			t.Fatalf("a refused query left %d cache entries and %d releases", st.Entries, releases.Load())
		}

		// The next call misses, computes once and stores the answer.
		res, err := s.PathDistributionGated(nil, p, depart, OD, acquire, release)
		if err != nil {
			t.Fatal(err)
		}
		if a, r := acquires.Load(), releases.Load(); a != 1 || r != 1 {
			t.Fatalf("a miss acquired %d / released %d times, want 1/1", a, r)
		}
		if st, _ := s.QueryCacheStats(); st.Entries != 1 {
			t.Fatalf("a miss left %d cache entries, want 1", st.Entries)
		}
		if !identicalPlanHist(ref.Dist, res.Dist) {
			t.Fatal("the computed answer differs from the uncached one")
		}

		// A hit returns the stored answer and touches no gate.
		hit, err := s.PathDistributionGated(nil, p, depart, OD, acquire, release)
		if err != nil || hit != res {
			t.Fatalf("hit = %p, %v; want the stored %p", hit, err, res)
		}
		if a := acquires.Load(); a != 1 {
			t.Fatalf("a cache hit acquired the gate (total %d)", a)
		}
		if st, _ := s.QueryCacheStats(); st.Hits != 1 || st.Misses != 2 {
			t.Fatalf("three calls counted %d hits and %d misses, want 1 and 2", st.Hits, st.Misses)
		}
	})

	t.Run("concurrent misses on one cold key", func(t *testing.T) {
		s.EnableQueryCache(64)
		acquires.Store(0)
		releases.Store(0)
		const callers = 16
		start := make(chan struct{})
		results := make([]*QueryResult, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = s.PathDistributionGated(context.Background(), p, depart, OD, acquire, release)
			}(i)
		}
		close(start)
		wg.Wait()

		for i := range results {
			if errs[i] != nil {
				t.Fatalf("caller %d: %v", i, errs[i])
			}
			if !identicalPlanHist(ref.Dist, results[i].Dist) {
				t.Fatalf("caller %d: answer differs from the uncached one", i)
			}
		}
		if a, r := acquires.Load(), releases.Load(); a != r || a < 1 || a > callers {
			t.Fatalf("%d callers acquired %d / released %d times", callers, a, r)
		}
		if st, _ := s.QueryCacheStats(); st.Entries != 1 {
			t.Fatalf("one key left %d cache entries, want 1", st.Entries)
		}
	})
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
