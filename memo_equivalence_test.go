package pathcost

// Equivalence proof for the incremental sub-path convolution engine:
// everything answered through the memo must be byte-identical to the
// unmemoized evaluation — same bucket boundaries, same masses, same
// routing choices — sequentially and under concurrency.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

func memoTestSystem(t testing.TB) *System {
	t.Helper()
	params := DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := Synthesize(SynthesizeConfig{
		Preset: "test", Trips: 5000, Seed: 17, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// memoWorkload builds a prefix-heavy query workload: long random
// paths plus every one of their prefixes, at two departures.
func memoWorkload(t testing.TB, sys *System) (paths []Path, departs []float64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		p, err := sys.RandomQueryPath(10, rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= len(p); n++ {
			paths = append(paths, p[:n])
		}
	}
	return paths, []float64{8 * 3600, 17*3600 + 240}
}

func TestPathDistributionMemoByteIdentical(t *testing.T) {
	sys := memoTestSystem(t)
	paths, departs := memoWorkload(t, sys)

	type key struct {
		i int
		d float64
		m Method
	}
	want := make(map[key][]float64)
	sys.EnableConvMemo(0)
	for i, p := range paths {
		for _, d := range departs {
			for _, m := range []Method{OD, HP, LB} {
				res, err := sys.PathDistribution(p, d, m)
				if err != nil {
					t.Fatalf("plain %v: %v", p, err)
				}
				var flat []float64
				for _, b := range res.Dist.Buckets() {
					flat = append(flat, b.Lo, b.Hi, b.Pr)
				}
				want[key{i, d, m}] = flat
			}
		}
	}

	sys.EnableConvMemo(8192)
	for pass := 0; pass < 2; pass++ { // second pass: deep memo hits
		for i, p := range paths {
			for _, d := range departs {
				for _, m := range []Method{OD, HP, LB} {
					res, err := sys.PathDistribution(p, d, m)
					if err != nil {
						t.Fatalf("memo %v: %v", p, err)
					}
					var flat []float64
					for _, b := range res.Dist.Buckets() {
						flat = append(flat, b.Lo, b.Hi, b.Pr)
					}
					w := want[key{i, d, m}]
					if len(flat) != len(w) {
						t.Fatalf("pass %d %s %v@%v: %d vs %d floats", pass, m, p, d, len(flat), len(w))
					}
					for j := range flat {
						if flat[j] != w[j] {
							t.Fatalf("pass %d %s %v@%v: float %d: memo %v != plain %v",
								pass, m, p, d, j, flat[j], w[j])
						}
					}
				}
			}
		}
	}
	st, ok := sys.ConvMemoStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("conv memo never hit: %+v", st)
	}
}

// TestMemoRoutingAndDistributionConcurrent runs routing and
// distribution queries at once on one memo-attached System (the
// /v1/batch shape): distribution queries read and feed the memo while
// routing searches resume from their parents only. Under -race this
// proves the shared chain states are safe, and all answers must match
// their memo-off twins exactly.
func TestMemoRoutingAndDistributionConcurrent(t *testing.T) {
	sys := memoTestSystem(t)
	paths, departs := memoWorkload(t, sys)

	src := VertexID(sys.Graph.NumVertices() / 3)
	var dst VertexID = -1
	dists := sys.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	best := 0.0
	for v, d := range dists {
		if VertexID(v) != src && d > best && d < 500 {
			best = d
			dst = VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no reachable routing destination")
	}
	budget := best * 2

	sys.EnableConvMemo(0)
	wantRoute, err := sys.Route(src, dst, departs[0], budget, OD)
	if err != nil {
		t.Fatal(err)
	}
	wantDist := make([][]float64, len(paths))
	for i, p := range paths {
		res, err := sys.PathDistribution(p, departs[0], OD)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range res.Dist.Buckets() {
			wantDist[i] = append(wantDist[i], b.Lo, b.Hi, b.Pr)
		}
	}

	sys.EnableConvMemo(8192)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				res, err := sys.Route(src, dst, departs[0], budget, OD)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !res.Path.Equal(wantRoute.Path) || res.Prob != wantRoute.Prob {
					errs <- "concurrent Route diverged from memo-off result"
				}
				return
			}
			for i, p := range paths {
				res, err := sys.PathDistribution(p, departs[0], OD)
				if err != nil {
					errs <- err.Error()
					return
				}
				var flat []float64
				for _, b := range res.Dist.Buckets() {
					flat = append(flat, b.Lo, b.Hi, b.Pr)
				}
				if len(flat) != len(wantDist[i]) {
					errs <- "concurrent PathDistribution bucket count diverged"
					return
				}
				for j := range flat {
					if flat[j] != wantDist[i][j] {
						errs <- "concurrent PathDistribution diverged from memo-off result"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
