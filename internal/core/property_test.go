package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
)

// randomWorkload builds a random chain-graph workload: trajectories of
// random spans with regime-correlated costs, so instantiated variables
// of many ranks exist.
func randomWorkload(seed int64) (*graph.Graph, *gps.Collection, Params) {
	rnd := rand.New(rand.NewSource(seed))
	nEdges := 6 + rnd.Intn(5)
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= nEdges; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	for i := 0; i < nEdges; i++ {
		b.AddEdge(vs[i], vs[i+1], 200+rnd.Float64()*400, 50, graph.ClassSecondary)
	}
	g := b.Freeze()

	params := DefaultParams()
	params.Beta = 8
	params.MaxRank = 3 + rnd.Intn(3)

	var trajs []*gps.Matched
	day := gps.SecondsPerDay
	nTrips := 120 + rnd.Intn(200)
	for i := 0; i < nTrips; i++ {
		start := rnd.Intn(nEdges - 2)
		span := 3 + rnd.Intn(nEdges-start-2)
		path := make(graph.Path, span)
		for j := range path {
			path[j] = graph.EdgeID(start + j)
		}
		depart := float64(i%7)*day + 8*3600 + rnd.Float64()*1200
		base := 20 + rnd.Float64()*10
		if rnd.Float64() < 0.4 {
			base *= 2.2 // congested regime for the whole trip
		}
		costs := make([]float64, span)
		for j := range costs {
			costs[j] = base + rnd.Float64()*8
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path, Depart: depart, EdgeCosts: costs,
		})
	}
	return g, gps.NewCollection(trajs, 0), params
}

// fixedQuick is a testing/quick configuration with a fixed generator.
// The default generator is seeded from the clock, which turns a
// property that fails for one seed in thousands into a test that fails
// one run in a hundred; a seed found that way becomes a named case.
func fixedQuick(count int, seed int64) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

func pointAt(i int) geo.Point {
	return geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}
}

// PROPERTY: on arbitrary random workloads, every decomposition kind is
// valid, the coarsest decomposition dominates the others (their paths
// are sub-paths of OD's), and every estimator returns a proper
// distribution.
func TestPropertyDecompositionsValid(t *testing.T) {
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		// Query the full chain.
		query := make(graph.Path, g.NumEdges())
		for i := range query {
			query[i] = graph.EdgeID(i)
		}
		if !g.ValidPath(query) {
			return false
		}
		depart := 8*3600 + 600.0
		ca, err := h.BuildCandidateArray(query, depart)
		if err != nil {
			return false
		}
		od := ca.CoarsestDecomposition(0)
		others := []*Decomposition{
			ca.UnitDecomposition(),
			ca.PairDecomposition(),
			ca.CoarsestDecomposition(2),
			ca.RandomDecomposition(rand.New(rand.NewSource(seed))),
		}
		if od.Validate(query) != nil {
			return false
		}
		for _, alt := range others {
			if alt.Validate(query) != nil {
				return false
			}
			for _, v := range alt.Vars {
				contained := false
				for _, w := range od.Vars {
					if hasSubPath(w.Path, v.Path) {
						contained = true
						break
					}
				}
				if !contained {
					return false
				}
			}
		}
		// Every method yields a normalized distribution with plausible
		// support.
		for _, m := range []Method{MethodOD, MethodHP, MethodLB, MethodRD} {
			res, err := h.CostDistribution(query, depart, QueryOptions{Method: m, Seed: seed})
			if err != nil {
				return false
			}
			if math.Abs(res.Dist.CDF(math.Inf(1))-1) > 1e-9 {
				return false
			}
			if res.Dist.Min() < 0 || res.Dist.Mean() <= 0 {
				return false
			}
		}
		return true
	}
	cfg := fixedQuick(25, 1)
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// chainVsDense returns the largest relative mean gap between the chain
// evaluator and the dense factorization over the OD and pair
// decompositions of workload seed's chain query, with accumulator and
// result compression off.
func chainVsDense(t *testing.T, seed int64) float64 {
	t.Helper()
	g, data, params := randomWorkload(seed)
	params.MaxAccBuckets = 0
	params.MaxResultBuckets = 0
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	n := g.NumEdges()
	if n > 8 {
		n = 8 // keep the dense grid tractable
	}
	query := make(graph.Path, n)
	for i := range query {
		query[i] = graph.EdgeID(i)
	}
	depart := 8*3600 + 600.0
	ca, err := h.BuildCandidateArray(query, depart)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var worst float64
	for _, de := range []*Decomposition{
		ca.CoarsestDecomposition(0),
		ca.PairDecomposition(),
	} {
		chain, _, err := h.Evaluate(de, query)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dense, err := h.EvaluateDense(de, query)
		if err != nil {
			// The dense grid can exceed its size limit on unlucky
			// seeds; that is not a property violation.
			continue
		}
		worst = math.Max(worst, math.Abs(chain.Mean()-dense.Mean())/(1+dense.Mean()))
	}
	return worst
}

// PROPERTY: the chain evaluator is mean-consistent with the dense
// factorization on arbitrary workloads and decompositions.
//
// With compression off the two describe one distribution except for
// one step of the chain: the rearrangement that re-buckets the
// accumulator axis merges adjacent slabs whose TOTAL density agrees to
// 1e-12 (hist.mergeEqualDensity). That leaves the accumulated-cost
// marginal untouched but spreads each kept-dimension cell's mass over
// the merged slab, blurring how the accumulated cost depends on the
// still-open edge; when a later factor conditions on that edge the
// blur reaches the mean. Every shift is at most half a merged slab's
// width times the mass in it, and the shifts of one merge sum to zero
// across the kept cells, so only the later reweighting shows: 3000
// random evaluations gave p99 2.6e-12 and one above 1e-6 (2.2e-6), and
// the largest known gap is the named seed below, 8.6e-5 — which drops
// to 1.5e-12 with the merge disabled. The merge is part of every
// exact answer (the answer digests pin it), so the named case carries
// the tolerance the mechanism needs and the sample keeps the sharp one.
func TestPropertyChainVsDense(t *testing.T) {
	f := func(seed int64) bool { return chainVsDense(t, seed) <= 1e-6 }
	if err := quick.Check(f, fixedQuick(15, 2)); err != nil {
		t.Fatal(err)
	}
	// Found by the clock-seeded generator this test used to run with:
	// the pair decomposition's chain mean is 329.2842 against the dense
	// 329.2558, an equal-density merge on a fold that keeps one edge.
	const mergeSeed, mergeTol = 107964931293188156, 1e-3
	if gap := chainVsDense(t, mergeSeed); gap > mergeTol {
		t.Fatalf("seed %d: chain and dense means differ by %.3g relative, beyond what an equal-density merge explains (%g)",
			int64(mergeSeed), gap, mergeTol)
	}
}

// PROPERTY: shift-and-enlarge intervals are monotone along the query
// path for any workload and departure time.
func TestPropertySAEMonotone(t *testing.T) {
	f := func(seed int64, hourRaw float64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		hour := math.Mod(math.Abs(hourRaw), 24)
		query := make(graph.Path, g.NumEdges())
		for i := range query {
			query[i] = graph.EdgeID(i)
		}
		ca, err := h.BuildCandidateArray(query, hour*3600)
		if err != nil {
			return false
		}
		for k := 1; k < len(ca.UIs); k++ {
			if ca.UIs[k].Lo < ca.UIs[k-1].Lo-1e-9 {
				return false
			}
			if ca.UIs[k].Width() < ca.UIs[k-1].Width()-1e-9 {
				return false
			}
		}
		return true
	}
	cfg := fixedQuick(20, 3)
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
