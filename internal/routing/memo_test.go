package routing_test

// A routing search resumes each expansion from its parent's state and
// never reads the convolution memo. On a System whose memo is
// on and warm with the very prefixes a search walks, BestPath,
// TopKPaths and SkylinePaths must answer exactly what a memo-free
// Router over the same model answers — path, probability, every bucket,
// Explored and Pruned — and leave the memo's hits, misses and entries
// where they were.

import (
	"math"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/routing"
)

var (
	memoSysOnce sync.Once
	memoSys     *pathcost.System
	memoSysErr  error
)

// memoSystem is the routing fixture's model served by a System with a
// 4096-state convolution memo.
func memoSystem(t testing.TB) *pathcost.System {
	t.Helper()
	memoSysOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		memoSys, memoSysErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 5, Params: params,
		})
		if memoSysErr == nil {
			memoSys.EnableConvMemo(4096)
		}
	})
	if memoSysErr != nil {
		t.Fatal(memoSysErr)
	}
	return memoSys
}

// memoQuery is the farthest destination under 400 s of free flow from
// vertex 10, with twice that time as the budget.
func memoQuery(t testing.TB, sys *pathcost.System) routing.Query {
	t.Helper()
	src := graph.VertexID(10)
	var dst graph.VertexID = -1
	best := 0.0
	for v, d := range sys.Graph.ShortestDistances(src, graph.FreeFlowWeight) {
		if !math.IsInf(d, 1) && d > best && d < 400 {
			best, dst = d, graph.VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no suitable destination")
	}
	return routing.Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: 2 * best}
}

// warmMemo offers the memo every prefix of every path, as distribution
// queries departing with the search would.
func warmMemo(t *testing.T, sys *pathcost.System, q routing.Query, m core.Method, paths ...graph.Path) {
	t.Helper()
	for _, p := range paths {
		for n := 1; n <= len(p); n++ {
			if _, err := sys.PathDistribution(p[:n], q.Depart, m); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func memoStats(t *testing.T, sys *pathcost.System) pathcost.CacheStats {
	t.Helper()
	st, ok := sys.ConvMemoStats()
	if !ok {
		t.Fatal("the fixture has no memo")
	}
	return st
}

func sameDist(a, b *hist.Histogram) bool {
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

func sameRoute(a, b *routing.Result) bool {
	return a.Path.Equal(b.Path) && a.Prob == b.Prob && sameDist(a.Dist, b.Dist) &&
		a.Explored == b.Explored && a.Pruned == b.Pruned
}

func sameRanking(a, b []routing.TopKResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Path.Equal(b[i].Path) || a[i].Prob != b[i].Prob || !sameDist(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

func TestMemoEquivalence(t *testing.T) {
	sys := memoSystem(t)
	free := routing.New(sys.Hybrid())
	q := memoQuery(t, sys)
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		opt := routing.Options{Method: m, Incremental: true}
		want, err := free.BestPath(q, opt)
		if err != nil {
			t.Fatalf("%s: memo-free BestPath: %v", m, err)
		}
		wantK, err := free.TopKPaths(q, 3, opt)
		if err != nil {
			t.Fatalf("%s: memo-free TopKPaths: %v", m, err)
		}
		wantS, err := free.SkylinePaths(q, 4, opt)
		if err != nil {
			t.Fatalf("%s: memo-free SkylinePaths: %v", m, err)
		}
		paths := []graph.Path{want.Path}
		for _, r := range wantK {
			paths = append(paths, r.Path)
		}
		warmMemo(t, sys, q, m, paths...)

		before := memoStats(t, sys)
		for round := 0; round < 2; round++ {
			got, err := sys.Route(q.Source, q.Dest, q.Depart, q.Budget, m)
			if err != nil || !sameRoute(got, want) {
				t.Fatalf("%s round %d: Route with a memo = %+v (err %v), memo-free %+v", m, round, got, err, want)
			}
			gotK, err := sys.TopKRoutes(q.Source, q.Dest, q.Depart, q.Budget, 3, m)
			if err != nil || !sameRanking(gotK, wantK) {
				t.Fatalf("%s round %d: TopKRoutes with a memo diverged from the memo-free router (err %v)", m, round, err)
			}
			gotS, err := sys.Router().SkylinePaths(q, 4, opt)
			if err != nil || !sameRanking(gotS, wantS) {
				t.Fatalf("%s round %d: SkylinePaths with a memo diverged from the memo-free router (err %v)", m, round, err)
			}
		}
		if after := memoStats(t, sys); after != before {
			t.Fatalf("%s: routing moved the memo: %+v, was %+v", m, after, before)
		}
	}
}

// TestMemoConcurrentQueries runs overlapping routing queries from one
// source on the memo-attached System at once; under -race this proves
// the searches share nothing they write, and every answer must equal
// the memo-free router's, with the memo untouched.
func TestMemoConcurrentQueries(t *testing.T) {
	sys := memoSystem(t)
	free := routing.New(sys.Hybrid())
	q := memoQuery(t, sys)
	opt := routing.Options{Method: core.MethodOD, Incremental: true}
	want, err := free.BestPath(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := free.TopKPaths(q, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	warmMemo(t, sys, q, core.MethodOD, want.Path)
	before := memoStats(t, sys)

	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				res, err := sys.Route(q.Source, q.Dest, q.Depart, q.Budget, core.MethodOD)
				if err != nil || !sameRoute(res, want) {
					errs <- "concurrent Route diverged from the memo-free router"
				}
				return
			}
			res, err := sys.TopKRoutes(q.Source, q.Dest, q.Depart, q.Budget, 2, core.MethodOD)
			if err != nil || !sameRanking(res, wantK) {
				errs <- "concurrent TopKRoutes diverged from the memo-free router"
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if after := memoStats(t, sys); after != before {
		t.Fatalf("concurrent routing moved the memo: %+v, was %+v", after, before)
	}
}

// TestRoutingEdgeCasesWithMemo pins the degenerate-query contract on
// the memo-attached System: src == dst errors for every query family,
// and a zero budget behaves exactly as on the memo-free router.
func TestRoutingEdgeCasesWithMemo(t *testing.T) {
	sys := memoSystem(t)
	free := routing.New(sys.Hybrid())
	q := memoQuery(t, sys)
	src := q.Source

	if _, err := sys.Route(src, src, q.Depart, 100, core.MethodOD); err == nil {
		t.Fatal("Route accepted src == dst")
	}
	if _, err := sys.TopKRoutes(src, src, q.Depart, 100, 2, core.MethodOD); err == nil {
		t.Fatal("TopKRoutes accepted src == dst")
	}
	if _, err := sys.Router().SkylinePaths(routing.Query{Source: src, Dest: src, Budget: 100}, 2, routing.Options{}); err == nil {
		t.Fatal("SkylinePaths accepted src == dst")
	}

	// Zero budget: P(cost ≤ 0) is 0 everywhere, so the search cannot
	// beat the initial incumbent bound; whatever the outcome (a
	// zero-probability path or a not-found error), it must be the same
	// with and without the memo.
	zq := q
	zq.Budget = 0
	pres, perr := free.BestPath(zq, routing.Options{Incremental: true})
	mres, merr := sys.Route(zq.Source, zq.Dest, zq.Depart, 0, core.MethodOD)
	if (perr == nil) != (merr == nil) {
		t.Fatalf("zero budget: memo-free err %v, memo err %v", perr, merr)
	}
	if perr == nil {
		if !sameRoute(pres, mres) {
			t.Fatalf("zero budget diverged: %v p=%v vs %v p=%v", pres.Path, pres.Prob, mres.Path, mres.Prob)
		}
		if pres.Prob != 0 {
			t.Fatalf("zero budget path has positive probability %v", pres.Prob)
		}
	}

	// A vertex with no outgoing edges cannot be a source of any path.
	for v := 0; v < sys.Graph.NumVertices(); v++ {
		if len(sys.Graph.Out(graph.VertexID(v))) == 0 && graph.VertexID(v) != q.Dest {
			if _, err := sys.Route(graph.VertexID(v), q.Dest, q.Depart, 1000, core.MethodOD); err == nil {
				t.Fatalf("Route from sink vertex %d succeeded", v)
			}
			break
		}
	}
}
