package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// hasSubPath reports whether sub is a contiguous sub-path of p.
func hasSubPath(p, sub graph.Path) bool {
	return strings.Contains(","+p.Key()+",", ","+sub.Key()+",")
}

// chainGraph builds a simple chain v0 -> v1 -> ... with edge IDs 0..n-1.
func chainGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= n; i++ {
		vs = append(vs, b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
	}
	return b.Freeze()
}

// table1Fixture reproduces the paper's Table 1 situation on a 5-edge
// chain: 30+ trajectories on <e0,e1,e2,e3> around 8:00 and 30+ on
// <e3,e4> timed so they are temporally relevant for a query departing
// at 8:00 on the full path.
func table1Fixture(t testing.TB) (*graph.Graph, *gps.Collection, Params) {
	t.Helper()
	g := chainGraph(t, 5)
	params := DefaultParams()
	params.MaxRank = 4
	rnd := rand.New(rand.NewSource(42))
	var trajs []*gps.Matched
	id := int64(0)
	day := gps.SecondsPerDay
	// Long trajectories on <e0..e3>, departing ~8:00 on several days.
	for i := 0; i < 40; i++ {
		depart := float64(i%10)*day + 8*3600 + rnd.Float64()*600
		costs := []float64{
			30 + rnd.Float64()*10, 35 + rnd.Float64()*10,
			28 + rnd.Float64()*8, 33 + rnd.Float64()*9,
		}
		trajs = append(trajs, &gps.Matched{
			ID: id, Path: graph.Path{0, 1, 2, 3}, Depart: depart, EdgeCosts: costs,
		})
		id++
	}
	// Trajectories on <e3,e4> arriving where the query's SAE window
	// lands (≈ 8:00 + cost of e0..e2 ≈ 100 s — same interval).
	for i := 0; i < 40; i++ {
		depart := float64(i%10)*day + 8*3600 + 100 + rnd.Float64()*600
		costs := []float64{31 + rnd.Float64()*9, 27 + rnd.Float64()*8}
		trajs = append(trajs, &gps.Matched{
			ID: id, Path: graph.Path{3, 4}, Depart: depart, EdgeCosts: costs,
		})
		id++
	}
	return g, gps.NewCollection(trajs, 0), params
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{AlphaMinutes: 0, Beta: 30, MaxRank: 4, GTThresholdS: 1, Resolution: 1},
		{AlphaMinutes: 7, Beta: 30, MaxRank: 4, GTThresholdS: 1, Resolution: 1},
		{AlphaMinutes: 30, Beta: 0, MaxRank: 4, GTThresholdS: 1, Resolution: 1},
		{AlphaMinutes: 30, Beta: 30, MaxRank: 0, GTThresholdS: 1, Resolution: 1},
		{AlphaMinutes: 30, Beta: 30, MaxRank: 99, GTThresholdS: 1, Resolution: 1},
		{AlphaMinutes: 30, Beta: 30, MaxRank: 4, GTThresholdS: 0, Resolution: 1},
		{AlphaMinutes: 30, Beta: 30, MaxRank: 4, GTThresholdS: 1, Resolution: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestParamsIntervals(t *testing.T) {
	p := DefaultParams()
	if p.NumIntervals() != 48 {
		t.Fatalf("intervals = %d", p.NumIntervals())
	}
	if got := p.IntervalOf(8 * 3600); got != 16 {
		t.Fatalf("interval of 8:00 = %d, want 16", got)
	}
	if got := p.IntervalOf(gps.SecondsPerDay + 8*3600); got != 16 {
		t.Fatal("interval must be time-of-day based")
	}
	lo, hi := p.IntervalBounds(16)
	if lo != 8*3600 || hi != 8*3600+1800 {
		t.Fatalf("bounds = [%v,%v)", lo, hi)
	}
}

func TestBuildInstantiatesExpectedVariables(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	// Edges 0..4 all have data.
	if st.EdgesWithData != 5 {
		t.Fatalf("edges with data = %d, want 5", st.EdgesWithData)
	}
	// Rank-4 variable for <e0,e1,e2,e3> must exist at interval 16.
	v := h.LookupInterval(graph.Path{0, 1, 2, 3}, 16)
	if v == nil {
		t.Fatal("rank-4 variable missing")
	}
	if v.Joint == nil || v.Support < params.Beta {
		t.Fatalf("rank-4 variable malformed: %+v", v)
	}
	// Rank-2 variable for <e3,e4>.
	if h.LookupInterval(graph.Path{3, 4}, 16) == nil {
		t.Fatal("rank-2 variable <e3,e4> missing")
	}
	// No variable may span <e0..e4> (no trajectory covers it).
	if h.LookupInterval(graph.Path{0, 1, 2, 3, 4}, 16) != nil {
		t.Fatal("phantom rank-5 variable")
	}
	// Sub-path variables come from sub-occurrences.
	for _, p := range []graph.Path{{1, 2, 3}, {2, 3}, {1, 2}} {
		if h.LookupInterval(p, 16) == nil {
			t.Fatalf("sub-path variable %v missing", p)
		}
	}
	// Every rank-1 variable must be supported by ≥ β trajectories.
	h.ForEachVariable(func(v *Variable) {
		if v.Support < params.Beta {
			t.Fatalf("variable %v interval %d has support %d < β", v.Path, v.Interval, v.Support)
		}
	})
	if st.TotalVariables() == 0 || st.StorageFloats == 0 {
		t.Fatal("stats not populated")
	}
	if st.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1 (all edges have ≥β data)", st.Coverage())
	}
}

func TestBuildAprioriProperty(t *testing.T) {
	// Every rank-k (k≥2) variable's rank-(k−1) prefix and suffix paths
	// must also have variables in some interval (they have at least the
	// same occurrences).
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	h.ForEachVariable(func(v *Variable) {
		if v.Rank() < 2 {
			return
		}
		prefix := v.Path[:v.Rank()-1]
		suffix := v.Path[1:]
		if h.find(prefix) < 0 {
			t.Errorf("prefix %v of %v has no variables", prefix, v.Path)
		}
		if h.find(suffix) < 0 {
			t.Errorf("suffix %v of %v has no variables", suffix, v.Path)
		}
	})
}

func TestUnitVariableFallback(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	// At 03:00 no trajectories exist: the unit variable must be the
	// speed-limit fallback.
	if h.LookupInterval(graph.Path{0}, params.IntervalOf(3*3600)) != nil {
		t.Fatal("expected no trajectory-backed unit variable at night")
	}
	v := h.fallbackVariable(0)
	if !v.SpeedLimit {
		t.Fatal("expected speed-limit fallback at night")
	}
	ff := g.Edge(0).FreeFlowSeconds()
	if !almostEq(v.Hist.Mean(), ff+0.5, 1) {
		t.Fatalf("fallback mean %v, want ≈ free-flow %v", v.Hist.Mean(), ff)
	}
	// At 08:00 the trajectory-backed variable must win.
	if v := h.LookupInterval(graph.Path{0}, params.IntervalOf(8*3600)); v == nil || v.SpeedLimit {
		t.Fatal("expected data-backed variable at 8:00")
	}
	// Fallback is cached.
	if h.fallbackVariable(0) != h.fallbackVariable(0) {
		t.Fatal("fallback not cached")
	}
}

func TestCandidateArrayTable1(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	ca, err := h.BuildCandidateArray(query, 8*3600+300)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Rows) != 5 {
		t.Fatalf("rows = %d", len(ca.Rows))
	}
	// Row 0 must include ranks 1..4; its highest rank is 4.
	row0 := ca.Rows[0]
	if got := row0.Vars[len(row0.Vars)-1].Rank(); got != 4 {
		t.Fatalf("row 0 max rank = %d, want 4", got)
	}
	// Rows are rank-sorted and every row has a rank-1 entry.
	for k, row := range ca.Rows {
		if row.Vars[0].Rank() != 1 {
			t.Fatalf("row %d lacks a rank-1 variable", k)
		}
		for i := 1; i < len(row.Vars); i++ {
			if row.Vars[i].Rank() < row.Vars[i-1].Rank() {
				t.Fatalf("row %d not rank-sorted", k)
			}
		}
	}
	// UI intervals grow monotonically (shift-and-enlarge).
	for k := 1; k < len(ca.UIs); k++ {
		if ca.UIs[k].Lo < ca.UIs[k-1].Lo || ca.UIs[k].Width() < ca.UIs[k-1].Width() {
			t.Fatalf("UI not monotone at %d: %+v", k, ca.UIs)
		}
	}
	// The coarsest decomposition is exactly the paper's:
	// (<e0,e1,e2,e3>, <e3,e4>).
	de := ca.CoarsestDecomposition(0)
	if de.Cardinality() != 2 {
		t.Fatalf("decomposition size = %d: %v", de.Cardinality(), de.Vars)
	}
	if !de.Vars[0].Path.Equal(graph.Path{0, 1, 2, 3}) || !de.Vars[1].Path.Equal(graph.Path{3, 4}) {
		t.Fatalf("decomposition = %v, %v", de.Vars[0].Path, de.Vars[1].Path)
	}
	if err := de.Validate(query); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateArrayRejectsInvalidQuery(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.BuildCandidateArray(graph.Path{0, 2}, 8*3600); err == nil {
		t.Fatal("invalid path accepted")
	}
}

func TestTemporalRelevanceExcludesWrongInterval(t *testing.T) {
	// Variables exist only around 08:00; a query at 20:00 must fall
	// back to unit variables (speed limits), mirroring the T7 example
	// of Section 2.2.
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := h.BuildCandidateArray(graph.Path{0, 1, 2, 3}, 20*3600)
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range ca.Rows {
		for _, v := range row.Vars {
			if !v.SpeedLimit {
				t.Fatalf("row %d has a temporally irrelevant variable %v@%d", k, v.Path, v.Interval)
			}
		}
	}
}

// dailyOverlapLoop is the day-by-day overlap a UI narrower than a day
// still takes: the reference for the closed form of wider ones.
func dailyOverlapLoop(ivLo, ivHi float64, ui TimeInterval) float64 {
	var total float64
	for d := math.Floor((ui.Lo-ivHi)/gps.SecondsPerDay) - 1; ; d++ {
		lo, hi := d*gps.SecondsPerDay+ivLo, d*gps.SecondsPerDay+ivHi
		if lo > ui.Hi {
			return total
		}
		if ol := math.Min(hi, ui.Hi) - math.Max(lo, ui.Lo); ol > 0 {
			total += ol
		}
	}
}

// TestOverlapOfWideIntervals holds the closed-form overlap of a UI a
// day or more wide to the daily loop, to rounding, over random
// intervals, starts on either side of 0 and widths up to a month; and
// a UI of 10^15 s, whose loop would run 10^10 days, to its own
// definition: every day's copy lies inside it but the partial ends.
func TestOverlapOfWideIntervals(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(42))
	nIv := h.Params.NumIntervals()
	for i := 0; i < 2000; i++ {
		iv := rnd.Intn(nIv)
		lo := (rnd.Float64() - 0.3) * 40 * gps.SecondsPerDay
		w := gps.SecondsPerDay * (1 + rnd.Float64()*30)
		if i%10 == 0 {
			w = float64(1+rnd.Intn(30)) * gps.SecondsPerDay // whole days
		}
		ui := TimeInterval{Lo: lo, Hi: lo + w}
		ivLo, ivHi := h.Params.IntervalBounds(iv)
		got, want := h.overlapWithInterval(iv, ui), dailyOverlapLoop(ivLo, ivHi, ui)
		if !almostEq(got, want, 1e-6) {
			t.Fatalf("interval %d, UI [%g, %g]: overlap %v, day by day %v", iv, ui.Lo, ui.Hi, got, want)
		}
	}
	ivLo, ivHi := h.Params.IntervalBounds(3)
	days := math.Floor(1e15 / gps.SecondsPerDay)
	got := h.overlapWithInterval(3, TimeInterval{Lo: 0, Hi: 1e15})
	if got < (days-1)*(ivHi-ivLo) || got > (days+1)*(ivHi-ivLo) {
		t.Fatalf("overlap with [0, 1e15] is %v, want about %v days of %v s", got, days, ivHi-ivLo)
	}
}

func TestDecompositionKinds(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	ca, err := h.BuildCandidateArray(query, 8*3600+300)
	if err != nil {
		t.Fatal(err)
	}
	// LB: all rank 1, |P| paths.
	lb := ca.UnitDecomposition()
	if lb.Cardinality() != 5 || lb.MaxRank() != 1 {
		t.Fatalf("LB decomposition wrong: %d paths, max rank %d", lb.Cardinality(), lb.MaxRank())
	}
	if err := lb.Validate(query); err != nil {
		t.Fatal(err)
	}
	// HP: rank ≤ 2, overlapping pairs.
	hp := ca.PairDecomposition()
	if hp.MaxRank() != 2 {
		t.Fatalf("HP max rank = %d", hp.MaxRank())
	}
	if err := hp.Validate(query); err != nil {
		t.Fatal(err)
	}
	// OD-2 caps rank at 2.
	od2 := ca.CoarsestDecomposition(2)
	if od2.MaxRank() > 2 {
		t.Fatalf("OD-2 max rank = %d", od2.MaxRank())
	}
	if err := od2.Validate(query); err != nil {
		t.Fatal(err)
	}
	// RD: valid for any seed.
	for seed := int64(0); seed < 20; seed++ {
		rd := ca.RandomDecomposition(rand.New(rand.NewSource(seed)))
		if err := rd.Validate(query); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Coarseness: every path of every other decomposition must be a
	// sub-path of some OD path or the decompositions coincide
	// (Theorem 3's premise, checked structurally).
	od := ca.CoarsestDecomposition(0)
	for _, alt := range []*Decomposition{lb, hp, od2} {
		for _, v := range alt.Vars {
			found := false
			for _, w := range od.Vars {
				if hasSubPath(w.Path, v.Path) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path %v of a finer decomposition not contained in OD", v.Path)
			}
		}
	}
}

func TestEvaluateChainMatchesDense(t *testing.T) {
	g, data, params := table1Fixture(t)
	params.MaxAccBuckets = 0 // exact chain evaluation
	params.MaxResultBuckets = 0
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	ca, err := h.BuildCandidateArray(query, 8*3600+300)
	if err != nil {
		t.Fatal(err)
	}
	for name, de := range map[string]*Decomposition{
		"OD":  ca.CoarsestDecomposition(0),
		"HP":  ca.PairDecomposition(),
		"LB":  ca.UnitDecomposition(),
		"OD3": ca.CoarsestDecomposition(3),
	} {
		chain, _, err := h.Evaluate(de, query)
		if err != nil {
			t.Fatalf("%s chain: %v", name, err)
		}
		dense, err := h.EvaluateDense(de, query)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		if !almostEq(chain.Mean(), dense.Mean(), 1e-6*dense.Mean()+1e-6) {
			t.Fatalf("%s: chain mean %v vs dense mean %v", name, chain.Mean(), dense.Mean())
		}
		// CDFs agree up to the incremental-vs-single uniform spreading.
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			x := dense.Quantile(q)
			if d := math.Abs(chain.CDF(x) - dense.CDF(x)); d > 0.08 {
				t.Fatalf("%s: CDF differs by %v at %v", name, d, x)
			}
		}
	}
}

func TestEvaluateSingleFactorLuckyCase(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3}
	res, err := h.CostDistribution(query, 8*3600+300, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomp.Cardinality() != 1 {
		t.Fatalf("expected single-factor decomposition, got %d", res.Decomp.Cardinality())
	}
	// The result must match the joint's own sum distribution.
	v := h.LookupInterval(query, 16)
	want, err := v.Joint.SumHistogram(params.MaxResultBuckets)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Dist.Mean(), want.Mean(), 1e-9) {
		t.Fatalf("lucky-case mean %v vs %v", res.Dist.Mean(), want.Mean())
	}
}

func TestCostDistributionMethods(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	for _, m := range []Method{MethodOD, MethodRD, MethodHP, MethodLB} {
		res, err := h.CostDistribution(query, 8*3600+300, QueryOptions{Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Dist == nil || res.Dist.NumBuckets() == 0 {
			t.Fatalf("%s: empty distribution", m)
		}
		if !almostEq(res.Dist.CDF(math.Inf(1)), 1, 1e-9) {
			t.Fatalf("%s: mass != 1", m)
		}
		// All methods estimate the same path, so means are comparable.
		if res.Dist.Mean() < 100 || res.Dist.Mean() > 250 {
			t.Fatalf("%s: implausible mean %v", m, res.Dist.Mean())
		}
		if res.Timing.Total() <= 0 {
			t.Fatalf("%s: timing not recorded", m)
		}
	}
	if _, err := h.CostDistribution(query, 8*3600, QueryOptions{Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDecompositionEntropyOrdering(t *testing.T) {
	// Theorem 3: coarser decompositions have lower (or equal) estimated
	// joint entropy. OD ≤ OD-2 and OD ≤ LB on the Table 1 fixture.
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	ca, err := h.BuildCandidateArray(query, 8*3600+300)
	if err != nil {
		t.Fatal(err)
	}
	entropy := func(de *Decomposition) float64 {
		e, err := h.DecompositionEntropy(de)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	od := entropy(ca.CoarsestDecomposition(0))
	od2 := entropy(ca.CoarsestDecomposition(2))
	lb := entropy(ca.UnitDecomposition())
	if od > od2+1e-9 {
		t.Fatalf("H(OD)=%v > H(OD-2)=%v", od, od2)
	}
	if od > lb+1e-9 {
		t.Fatalf("H(OD)=%v > H(LB)=%v", od, lb)
	}
}

func TestGroundTruthBaseline(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	p := graph.Path{0, 1, 2, 3}
	gt, n, err := GroundTruth(data, p, 8*3600+300, params)
	if err != nil {
		t.Fatal(err)
	}
	if n < params.Beta {
		t.Fatalf("qualified = %d", n)
	}
	// Mean must be near the generating mean (4 edges ≈ 126+18 ≈ 144).
	if gt.Mean() < 110 || gt.Mean() > 180 {
		t.Fatalf("GT mean = %v", gt.Mean())
	}
	// Sparse case: full 5-edge path has no trajectories.
	if _, _, err := GroundTruth(data, graph.Path{0, 1, 2, 3, 4}, 8*3600, params); err == nil {
		t.Fatal("sparse path should fail")
	}
	// Wrong time: no qualified trajectories at 20:00.
	if _, _, err := GroundTruth(data, p, 20*3600, params); err == nil {
		t.Fatal("wrong departure time should fail")
	}
}

func TestODBeatsLBOnDependentCosts(t *testing.T) {
	// Build a workload with strong inter-edge dependence where the
	// query path is longer than any instantiated variable, so OD must
	// stitch sub-path joints. OD's distribution must be closer to the
	// ground truth than LB's (the paper's headline result).
	g := chainGraph(t, 6)
	params := DefaultParams()
	params.MaxRank = 3
	rnd := rand.New(rand.NewSource(7))
	var trajs []*gps.Matched
	day := gps.SecondsPerDay
	for i := 0; i < 300; i++ {
		depart := float64(i%10)*day + 8*3600 + rnd.Float64()*900
		// Two regimes shared by the whole trip: all edges fast or all
		// slow — maximal positive dependence.
		base := 25.0
		if rnd.Float64() < 0.5 {
			base = 60.0
		}
		costs := make([]float64, 6)
		for j := range costs {
			costs[j] = base + rnd.Float64()*6
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: graph.Path{0, 1, 2, 3, 4, 5}, Depart: depart, EdgeCosts: costs,
		})
	}
	data := gps.NewCollection(trajs, 0)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4, 5}
	depart := 8*3600 + 450.0
	gt, _, err := GroundTruth(data, query, depart, params)
	if err != nil {
		t.Fatal(err)
	}
	od, err := h.CostDistribution(query, depart, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := h.CostDistribution(query, depart, QueryOptions{Method: MethodLB})
	if err != nil {
		t.Fatal(err)
	}
	if od.Decomp.MaxRank() != 3 {
		t.Fatalf("OD should use rank-3 variables, got %d", od.Decomp.MaxRank())
	}
	// The true total is bimodal (~150+36 or ~360+36); LB's convolution
	// of independent bimodal edges concentrates around the middle.
	klOD := stats.KLHistograms(gt, od.Dist)
	klLB := stats.KLHistograms(gt, lb.Dist)
	if klOD >= klLB {
		t.Fatalf("KL(GT,OD)=%v should be < KL(GT,LB)=%v", klOD, klLB)
	}
	// OD must preserve bimodality: low probability mass mid-range.
	mid := gt.Mean()
	if od.Dist.MassOn(mid-20, mid+20) > lb.Dist.MassOn(mid-20, mid+20) {
		t.Fatal("OD should put less mass in the spurious middle than LB")
	}
}

var _ = hist.DefaultResolution // hist is exercised via Evaluate internals

// TestParallelBuildMatchesSerial checks that the worker-pool
// instantiation produces exactly the same hybrid graph as the serial
// one: same statistics and same query answers.
func TestParallelBuildMatchesSerial(t *testing.T) {
	g, data, params := table1Fixture(t)
	serial, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Workers = 8
	parallel, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	ss, ps := serial.Stats(), parallel.Stats()
	if ss.TotalVariables() != ps.TotalVariables() ||
		ss.CoveredEdges != ps.CoveredEdges ||
		ss.StorageFloats != ps.StorageFloats {
		t.Fatalf("stats differ: serial %+v vs parallel %+v", ss, ps)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	depart := 8*3600 + 300.0
	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		a, err1 := serial.CostDistribution(query, depart, QueryOptions{Method: m})
		b, err2 := parallel.CostDistribution(query, depart, QueryOptions{Method: m})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(a.Dist.Mean()-b.Dist.Mean()) > 1e-9 {
			t.Fatalf("%s: serial %v vs parallel %v", m, a.Dist.Mean(), b.Dist.Mean())
		}
	}
}

// TestConcurrentQueries checks that a trained hybrid graph is safe for
// concurrent readers (queries share the fallback cache).
func TestConcurrentQueries(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	query := graph.Path{0, 1, 2, 3, 4}
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func(seed int64) {
			for i := 0; i < 20; i++ {
				// Mix of in-data and fallback-only departure times.
				depart := 8*3600 + float64(i*60)
				if i%3 == 0 {
					depart = 20 * 3600
				}
				if _, err := h.CostDistribution(query, depart, QueryOptions{Method: MethodOD}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < 16; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
