package fidelity

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
)

// fixture is a 3-edge chain with β = 5. Twelve trajectories with IDs
// 0..11 cross the whole chain around 08:00, stored in descending ID
// order, and trajectory ID i takes 20+i s on edge 0. Five more take
// 10 s on edge 0 alone, and one crosses the chain at 20:00.
func fixture(t *testing.T) (*graph.Graph, *gps.Collection, core.Params) {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= 3; i++ {
		vs = append(vs, b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}))
	}
	for i := 0; i < 3; i++ {
		b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
	}
	params := core.DefaultParams()
	params.Beta = 5
	day := gps.SecondsPerDay
	var trajs []*gps.Matched
	for id := 11; id >= 0; id-- {
		trajs = append(trajs, &gps.Matched{
			ID: int64(id), Path: graph.Path{0, 1, 2}, Depart: float64(id%3)*day + 8*3600 + 10*float64(id),
			EdgeCosts: []float64{20 + float64(id), 30, 40},
		})
	}
	for i := 0; i < params.Beta; i++ {
		trajs = append(trajs, &gps.Matched{
			ID: int64(100 + i), Path: graph.Path{0}, Depart: float64(i)*day + 8*3600 + 60, EdgeCosts: []float64{10},
		})
	}
	trajs = append(trajs, &gps.Matched{
		ID: 50, Path: graph.Path{0, 1, 2}, Depart: 20 * 3600, EdgeCosts: []float64{25, 30, 40},
	})
	return b.Freeze(), gps.NewCollection(trajs, 0), params
}

var chain = core.DensePath{Path: graph.Path{0, 1, 2}, Interval: 16, Count: 12}

func TestCollectGathersTheIntervalsTraversals(t *testing.T) {
	_, data, params := fixture(t)
	s := Collect(data, params, chain)
	if len(s.Costs) != 12 || len(s.Trajs) != 12 {
		t.Fatalf("collected %d costs, %d trajectories; want 12 each", len(s.Costs), len(s.Trajs))
	}
	for i, id := range s.Trajs {
		if want := int64(11 - i); id != want {
			t.Fatalf("Trajs[%d] = %d, want %d (occurrence order)", i, id, want)
		}
		if want := 20 + float64(id) + 70; s.Costs[i] != want {
			t.Fatalf("cost of trajectory %d = %v, want %v", id, s.Costs[i], want)
		}
	}
	if _, err := NewTruth(s, params); err != nil {
		t.Fatal(err)
	}
	// Interval 40 (20:00–20:30) holds the one evening trip: below β.
	if _, err := NewTruth(Collect(data, params, core.DensePath{Path: chain.Path, Interval: 40}), params); err == nil {
		t.Fatal("a truth below β was built")
	}
}

func TestHoldOutKeepsTheLowestBetaMinusOneSupporters(t *testing.T) {
	g, data, params := fixture(t)
	full, err := core.Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	if full.LookupInterval(chain.Path, chain.Interval) == nil {
		t.Fatal("the full model lacks the chain's variable")
	}
	h, err := HoldOut(g, data, params, []Sample{Collect(data, params, chain)})
	if err != nil {
		t.Fatal(err)
	}
	if h.LookupInterval(chain.Path, chain.Interval) != nil {
		t.Fatal("the held-out model still instantiates the query path")
	}
	e0 := h.LookupInterval(graph.Path{0}, chain.Interval)
	if e0 == nil {
		t.Fatal("the held-out model lost edge 0's data")
	}
	// β−1 = 4 supporters stay — IDs 0..3, costing 20..23 — beside the
	// five 10 s trips.
	if e0.Support != 2*params.Beta-1 || e0.TimeMin != 10 || e0.TimeMax != 23 {
		t.Fatalf("edge 0 kept support %d over [%v, %v]; want %d over [10, 23]",
			e0.Support, e0.TimeMin, e0.TimeMax, 2*params.Beta-1)
	}
}

func TestScoreMeasuresAnEstimate(t *testing.T) {
	g, data, params := fixture(t)
	gt, err := NewTruth(Collect(data, params, chain), params)
	if err != nil {
		t.Fatal(err)
	}
	fallback := &core.Variable{Path: graph.Path{0}, Interval: -1, SpeedLimit: true}
	trained := &core.Variable{Path: graph.Path{1, 2}, Interval: chain.Interval}
	decomp := &core.Decomposition{Vars: []*core.Variable{fallback, trained}, Pos: []int{0, 1}}

	// The truth's own lattice scores zero on the raw ruler, and its
	// mid-cell PIT puts 1/12 of the mass at each of 12 evenly spaced
	// points: no bin holds more than two of them.
	exact := gt.Score(&core.QueryResult{Dist: gt.Lattice(), Decomp: decomp})
	if exact.KL > 1e-6 {
		t.Fatalf("KL of the truth's own lattice = %v", exact.KL)
	}
	for i, m := range exact.PIT {
		if m > 2.0/12+1e-12 {
			t.Fatalf("PIT bin %d holds %v", i, m)
		}
	}
	if exact.Factors != 2 || exact.Fallbacks != 1 || exact.FallbackShare() != 0.5 {
		t.Fatalf("factors %d, fallbacks %d", exact.Factors, exact.Fallbacks)
	}

	// A free-flow point mass below every observation: all PIT mass in
	// the last bin, and a sliver bucket is counted.
	point := hist.MustFromBuckets([]hist.Bucket{{Lo: 40, Hi: 41, Pr: 0.5}, {Lo: 41, Hi: 41 + 1e-9, Pr: 0.5}})
	miss := gt.Score(&core.QueryResult{Dist: point, Decomp: decomp})
	if miss.PIT[pitBins-1] != 1 || miss.PITTails() != 1 {
		t.Fatalf("PIT of a point mass below the truth = %v", miss.PIT)
	}
	if miss.KL < 10 || miss.KLAuto < 10 {
		t.Fatalf("KL of a disjoint estimate = %v raw, %v Auto", miss.KL, miss.KLAuto)
	}
	if miss.Buckets != 2 || miss.Slivers != 1 || miss.SliverShare() != 0.5 {
		t.Fatalf("buckets %d, slivers %d", miss.Buckets, miss.Slivers)
	}

	var sum Score
	sum.Add(exact)
	sum.Add(miss)
	if sum.KL != exact.KL+miss.KL || sum.Factors != 4 || sum.Slivers != 1 || math.Abs(sum.PIT[pitBins-1]-1-exact.PIT[pitBins-1]) > 1e-12 {
		t.Fatalf("sum = %+v", sum)
	}

	// End to end: the held-out model answers from the edges, and its
	// answer scores finitely on both rulers.
	h, err := HoldOut(g, data, params, []Sample{gt.Sample})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.CostDistribution(chain.Path, 8*3600+60, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := gt.Score(res)
	if s.Factors != len(res.Decomp.Vars) || math.IsNaN(s.KL) || math.IsInf(s.KL, 0) || math.IsNaN(s.KLAuto) {
		t.Fatalf("held-out score %+v", s)
	}
}
