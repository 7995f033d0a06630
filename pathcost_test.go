package pathcost

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/gps"
	"repro/internal/graph"
)

var (
	sysOnce sync.Once
	sysInst *System
	sysErr  error
)

// testSystem builds one shared small system for the API tests.
func testSystem(t testing.TB) *System {
	t.Helper()
	sysOnce.Do(func() {
		params := DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		sysInst, sysErr = Synthesize(SynthesizeConfig{
			Preset: "test", Trips: 4000, Seed: 3, Params: params,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

func TestSynthesizeAndStats(t *testing.T) {
	s := testSystem(t)
	if s.Graph.NumVertices() == 0 || s.Data().Len() != 4000 {
		t.Fatalf("system malformed: %d vertices, %d trips", s.Graph.NumVertices(), s.Data().Len())
	}
	st := s.Stats()
	if st.TotalVariables() == 0 {
		t.Fatal("no variables instantiated")
	}
	if st.VariablesByRank[1] == 0 {
		t.Fatal("no rank-2 variables: dependence cannot be captured")
	}
	if c := st.Coverage(); c <= 0 || c > 1 {
		t.Fatalf("coverage = %v", c)
	}
}

func TestPathDistributionAllMethods(t *testing.T) {
	s := testSystem(t)
	dense := s.DensePaths(5, 20)
	if len(dense) == 0 {
		t.Skip("no dense 5-edge paths in this workload")
	}
	dp := dense[0]
	lo, _ := s.Params.IntervalBounds(dp.Interval)
	for _, m := range []Method{OD, RD, HP, LB} {
		res, err := s.PathDistribution(dp.Path, lo+60, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Dist.Mean() <= 0 {
			t.Fatalf("%s: non-positive mean", m)
		}
		if math.Abs(res.Dist.CDF(math.Inf(1))-1) > 1e-9 {
			t.Fatalf("%s: not a distribution", m)
		}
	}
}

func TestODBeatsLBOnDenseHeldOutPath(t *testing.T) {
	// End-to-end accuracy on the synthetic city, by the Figure 14
	// protocol and ruler: hold the dense paths' supporters out down to
	// β−1, and OD must on average be closer than LB to the held-out
	// traversals' raw lattice.
	s := testSystem(t)
	for _, card := range []int{3, 4} {
		dense := s.DensePaths(card, s.Params.Beta)
		if len(dense) > 10 {
			dense = dense[:10]
		}
		queries := make([]fidelity.Sample, len(dense))
		for i, dp := range dense {
			queries[i] = fidelity.Collect(s.Data(), s.Params, dp)
		}
		h, err := fidelity.HoldOut(s.Graph, s.Data(), s.Params, queries)
		if err != nil {
			t.Fatal(err)
		}
		var od, lb fidelity.Score
		n := 0
		for _, q := range queries {
			gt, err := fidelity.NewTruth(q, s.Params)
			if err != nil {
				t.Fatal(err)
			}
			lo, _ := s.Params.IntervalBounds(q.Interval)
			odRes, err1 := h.CostDistribution(q.Path, lo+60, core.QueryOptions{Method: core.MethodOD})
			lbRes, err2 := h.CostDistribution(q.Path, lo+60, core.QueryOptions{Method: core.MethodLB})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			od.Add(gt.Score(odRes))
			lb.Add(gt.Score(lbRes))
			n++
		}
		if n < 5 {
			t.Fatalf("|P|=%d: only %d dense held-out paths", card, n)
		}
		if od.KL >= lb.KL {
			t.Fatalf("|P|=%d: mean KL of OD %.3f is not below LB's %.3f over %d paths", card, od.KL/float64(n), lb.KL/float64(n), n)
		}
	}
}

func TestRouteFacade(t *testing.T) {
	s := testSystem(t)
	src := VertexID(5)
	dists := s.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	var dst VertexID = -1
	best := 0.0
	for v, d := range dists {
		if VertexID(v) != src && !math.IsInf(d, 1) && d > best && d < 300 {
			best = d
			dst = VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no destination")
	}
	res, err := s.Route(src, dst, 8*3600, best*3, OD)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Graph.ValidPath(res.Path) {
		t.Fatal("invalid route")
	}
	if res.Prob <= 0 {
		t.Fatalf("prob = %v", res.Prob)
	}
}

func TestRandomQueryPath(t *testing.T) {
	s := testSystem(t)
	rnd := rand.New(rand.NewSource(9))
	p, err := s.RandomQueryPath(8, rnd.Intn)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 || !s.Graph.ValidPath(p) {
		t.Fatalf("bad random path %v", p)
	}
	if _, err := s.RandomQueryPath(10_000, rnd.Intn); err == nil {
		t.Fatal("impossible cardinality accepted")
	}
}

func TestDensePathsOrderingAndThreshold(t *testing.T) {
	s := testSystem(t)
	dense := s.DensePaths(3, 25)
	for i, dp := range dense {
		if dp.Count < 25 {
			t.Fatalf("entry %d below threshold: %d", i, dp.Count)
		}
		if i > 0 && dp.Count > dense[i-1].Count {
			t.Fatal("not sorted by count")
		}
		if len(dp.Path) != 3 {
			t.Fatalf("wrong cardinality %d", len(dp.Path))
		}
	}
}

// TestDensePathsBreaksTiesByInterval: one path with equal support in
// two α-intervals ties on count and path; its order must not follow map
// iteration. Fifty calls answer identically, intervals ascending.
func TestDensePathsBreaksTiesByInterval(t *testing.T) {
	base := testSystem(t)
	var p Path
	for i := 0; i < base.Data().Len() && p == nil; i++ {
		if m := base.Data().Traj(i); len(m.Path) >= 2 {
			p = m.Path[:2].Clone()
		}
	}
	params := DefaultParams()
	params.Beta = 5
	var trajs []*Matched
	for i := 0; i < 10; i++ {
		for _, depart := range []float64{17 * 3600, 8 * 3600} {
			trajs = append(trajs, &Matched{ID: int64(len(trajs)), Path: p, Depart: depart, EdgeCosts: []float64{30, 40}})
		}
	}
	sys, err := NewSystem(base.Graph, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	first := sys.DensePaths(2, 10)
	if len(first) != 2 || first[0].Count != 10 || first[1].Count != 10 || first[0].Interval >= first[1].Interval {
		t.Fatalf("dense paths = %+v, want the path twice with count 10, intervals ascending", first)
	}
	for call := 1; call < 50; call++ {
		got := sys.DensePaths(2, 10)
		for i := range got {
			if got[i].Interval != first[i].Interval || got[i].Path.Key() != first[i].Path.Key() {
				t.Fatalf("call %d entry %d = %+v, call 0 answered %+v", call, i, got[i], first[i])
			}
		}
	}
}

func TestNewSystemRejectsBadParams(t *testing.T) {
	s := testSystem(t)
	bad := DefaultParams()
	bad.AlphaMinutes = -1
	if _, err := NewSystem(s.Graph, s.Data(), bad); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestSaveLoadModel(t *testing.T) {
	s := testSystem(t)
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(s.Graph, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().TotalVariables() != s.Stats().TotalVariables() {
		t.Fatal("variable counts differ after load")
	}
	dense := s.DensePaths(4, 20)
	if len(dense) == 0 {
		t.Skip("no dense paths")
	}
	lo, _ := s.Params.IntervalBounds(dense[0].Interval)
	a, err1 := s.PathDistribution(dense[0].Path, lo+60, OD)
	b, err2 := loaded.PathDistribution(dense[0].Path, lo+60, OD)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(a.Dist.Mean()-b.Dist.Mean()) > 1e-9 {
		t.Fatalf("loaded model answers differently: %v vs %v", a.Dist.Mean(), b.Dist.Mean())
	}
}

func TestTopKRoutesFacade(t *testing.T) {
	s := testSystem(t)
	src := VertexID(5)
	dists := s.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	var dst VertexID = -1
	best := 0.0
	for v, d := range dists {
		if VertexID(v) != src && !math.IsInf(d, 1) && d > best && d < 300 {
			best = d
			dst = VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no destination")
	}
	res, err := s.TopKRoutes(src, dst, 8*3600, best*2.5, 3, OD)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Prob > res[i-1].Prob+1e-9 {
			t.Fatal("not sorted")
		}
	}
}
