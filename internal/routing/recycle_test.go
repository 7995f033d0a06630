package routing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// In a test binary hist.PutMulti scrambles every key and sets every
// probability of what it releases to NaN, and a path slot's release
// sets every accumulator cut it keeps as storage to NaN (core's
// poisonReleased). A search that read a chain state, a Multi or an
// axis after its slot recycled it would answer differently from the
// references below, or fail on the broken cell order.

// recycleMethods are the methods the route mix sends (OD, the
// default) and the two baselines the search golden covers.
var recycleMethods = []core.Method{core.MethodOD, core.MethodHP, core.MethodLB}

// randomQueries draws n queries between vertex pairs 100–400 s of free
// flow apart, each with a budget from the sweep past its first factor
// (half the free-flow time, which nearly no path meets).
func randomQueries(t *testing.T, g *graph.Graph, rnd *rand.Rand, n int) []Query {
	t.Helper()
	var qs []Query
	for tries := 0; len(qs) < n; tries++ {
		if tries > 100*n {
			t.Fatalf("found %d of %d queries", len(qs), n)
		}
		src := graph.VertexID(rnd.Intn(g.NumVertices()))
		dist := g.ShortestDistances(src, graph.FreeFlowWeight)
		dst := graph.VertexID(rnd.Intn(g.NumVertices()))
		if d := dist[dst]; dst != src && d > 100 && d < 400 {
			f := sweepBudgets[1+rnd.Intn(len(sweepBudgets)-1)]
			qs = append(qs, Query{Source: src, Dest: dst, Depart: 8*3600 + float64(rnd.Intn(3600)), Budget: d * f})
		}
	}
	return qs
}

// TestRecyclingDifferential holds the recycling search to the
// reference that recycles nothing, on random queries and every
// method: BestPath, TopKPaths with k = 1, 3 and 8 and SkylinePaths
// answer like scratchSearch; with the pools dirty the search golden
// still matches; and every distribution handed out stays bit-identical
// while 50 further searches reuse the slots it was computed in.
func TestRecyclingDifferential(t *testing.T) {
	g, h := hybridFixture(t)
	r := New(h)
	rnd := rand.New(rand.NewSource(41))
	type handed struct {
		what string
		res  TopKResult
		hash string
	}
	var out []handed
	answered, deep := 0, 0
	hand := func(what string, rs ...TopKResult) {
		for i, x := range rs {
			out = append(out, handed{fmt.Sprintf("%s[%d]", what, i), x, distHash(x.Dist)})
		}
	}
	for qi, q := range randomQueries(t, g, rnd, 10) {
		for _, m := range recycleMethods {
			opt := Options{Method: m, MaxExpansions: 1500}
			what := fmt.Sprintf("query %d %s", qi, m)
			got, gotErr := r.BestPath(q, opt)
			want, wantErr := scratchBestPath(r, q, opt)
			sameResult(t, what+" BestPath", got, want, gotErr, wantErr)
			if gotErr == nil {
				hand(what+" BestPath", TopKResult{Path: got.Path, Prob: got.Prob, Dist: got.Dist})
				answered++
				if got.Explored >= 200 {
					deep++
				}
			}
			for _, k := range []int{1, 3, 8} {
				top, topErr := r.TopKPaths(q, k, opt)
				var ref []TopKResult
				refErr := wantErr
				switch {
				case k > 1:
					ref, _, _, refErr = scratchSearch(r, q, k, opt)
				case wantErr == nil:
					ref = []TopKResult{{Path: want.Path, Prob: want.Prob, Dist: want.Dist}}
				}
				sameRanking(t, fmt.Sprintf("%s top-%d", what, k), top, ref, topErr, refErr)
				hand(fmt.Sprintf("%s top-%d", what, k), top...)
				if k == 8 {
					sky, skyErr := r.SkylinePaths(q, 8, opt)
					if refErr == nil {
						ref = skyline(ref)
					}
					sameRanking(t, what+" skyline", sky, ref, skyErr, refErr)
					hand(what+" skyline", sky...)
				}
			}
		}
	}
	if answered < 15 || deep == 0 {
		t.Fatalf("the random queries gave %d answers, %d of them from 200 or more expansions: too few to hold the search to", answered, deep)
	}
	checkGolden(t, "search.golden", searchGolden(t, g, r))

	for i, q := range randomQueries(t, g, rnd, 50) {
		opt := Options{Method: recycleMethods[i%len(recycleMethods)], MaxExpansions: 1500}
		if _, err := r.TopKPaths(q, 1+i%8, opt); err != nil && err.Error() != errNoPath {
			t.Fatal(err)
		}
	}
	for _, x := range out {
		if got := distHash(x.res.Dist); got != x.hash {
			t.Fatalf("%s: the distribution handed out changed after 50 further searches: %s, was %s", x.what, got, x.hash)
		}
		if p := x.res.Dist.CDF(math.Inf(1)); math.IsNaN(p) {
			t.Fatalf("%s: the distribution handed out holds NaN", x.what)
		}
	}
}

// errNoPath is the answer of a search that finds no complete path
// within its limits.
const errNoPath = "routing: no path to destination found within limits"

// cutCtx is a context whose deadline passes at its n-th check: a
// search reads it once per expansion, so it dies mid-DFS, with states
// in its slots, at a chosen expansion.
type cutCtx struct {
	context.Context
	n int
}

func (c *cutCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineCutThenFreshSearch cuts searches short at every point of
// their walk and checks that the next search, which takes over the
// pooled searcher and its slots, answers exactly like the reference.
func TestDeadlineCutThenFreshSearch(t *testing.T) {
	g, h := hybridFixture(t)
	r := New(h)
	for qi, q := range randomQueries(t, g, rand.New(rand.NewSource(43)), 4) {
		for _, m := range recycleMethods {
			opt := Options{Method: m, MaxExpansions: 1500}
			what := fmt.Sprintf("query %d %s", qi, m)
			want, wantErr := scratchBestPath(r, q, opt)
			ref, _, _, refErr := scratchSearch(r, q, 3, opt)
			if wantErr != nil {
				continue
			}
			for cut := 1; cut < want.Explored; cut += 1 + want.Explored/7 {
				if _, err := r.BestPathCtx(&cutCtx{context.Background(), cut}, q, opt); err != context.DeadlineExceeded {
					t.Fatalf("%s: a search cut at expansion %d of %d returned %v", what, cut, want.Explored, err)
				}
				got, err := r.BestPath(q, opt)
				sameResult(t, fmt.Sprintf("%s after a cut at %d", what, cut), got, want, err, wantErr)
				if _, err := r.TopKPathsCtx(&cutCtx{context.Background(), cut}, q, 3, opt); err != context.DeadlineExceeded {
					t.Fatalf("%s: a top-3 search cut at expansion %d returned %v", what, cut, err)
				}
				top, err := r.TopKPaths(q, 3, opt)
				sameRanking(t, fmt.Sprintf("%s top-3 after a cut at %d", what, cut), top, ref, err, refErr)
			}
		}
	}
}

// TestConcurrentSearches runs searches on one Router from several
// goroutines, each over the queries in its own order, and holds every
// answer to the one a lone search gives: no slot, state or pooled
// searcher is shared between concurrent searches (run it under -race).
func TestConcurrentSearches(t *testing.T) {
	g, h := hybridFixture(t)
	r := New(h)
	qs := randomQueries(t, g, rand.New(rand.NewSource(47)), 6)
	type answer struct {
		top []TopKResult
		err error
	}
	want := make([][]answer, len(recycleMethods))
	for mi, m := range recycleMethods {
		for _, q := range qs {
			top, err := r.TopKPaths(q, 1+len(want[mi])%4, Options{Method: m, MaxExpansions: 1500})
			want[mi] = append(want[mi], answer{top, err})
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 3; round++ {
				for _, i := range rnd.Perm(len(qs) * len(recycleMethods)) {
					mi, qi := i/len(qs), i%len(qs)
					top, err := r.TopKPaths(qs[qi], 1+qi%4, Options{Method: recycleMethods[mi], MaxExpansions: 1500})
					if msg := rankingDiff(top, want[mi][qi].top, err, want[mi][qi].err); msg != "" {
						errs <- fmt.Errorf("worker %d, %s query %d: %s", w, recycleMethods[mi], qi, msg)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// rankingDiff is sameRanking for a goroutine that cannot fail the test
// itself: it describes the first difference, or returns "".
func rankingDiff(got, want []TopKResult, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Path.Equal(want[i].Path) || got[i].Prob != want[i].Prob || distHash(got[i].Dist) != distHash(want[i].Dist) {
			return fmt.Sprintf("rank %d is %v p=%v, want %v p=%v", i, got[i].Path, got[i].Prob, want[i].Path, want[i].Prob)
		}
	}
	return ""
}
