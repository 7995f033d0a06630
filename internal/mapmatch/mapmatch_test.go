package mapmatch

import (
	"math"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// Match decodes the most likely path for the trajectory. It returns an
// error when the trajectory is invalid or no candidate chain connects.
func (m *Matcher) Match(tr *gps.Trajectory) (graph.Path, error) {
	seq, _, err := m.decode(tr)
	if err != nil {
		return nil, err
	}
	return m.expandPath(seq)
}

func testNetwork(t testing.TB) *graph.Graph {
	t.Helper()
	return netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
}

func testTraces(t testing.TB, n int, noise float64) (*graph.Graph, *trajgen.Result) {
	t.Helper()
	g := testNetwork(t)
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 11, NumTrips: n, EmitGPS: true,
		SamplingIntervalS: 3, GPSNoiseM: noise,
	})
	return g, gen.Generate()
}

// edgeAccuracy returns the fraction of true path edges recovered by
// the matched path (order-respecting containment measured per edge).
func edgeAccuracy(truth, matched graph.Path) float64 {
	inMatched := make(map[graph.EdgeID]struct{}, len(matched))
	for _, e := range matched {
		inMatched[e] = struct{}{}
	}
	hit := 0
	for _, e := range truth {
		if _, ok := inMatched[e]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

func TestMatchRecoversTruePathsLowNoise(t *testing.T) {
	g, res := testTraces(t, 30, 4)
	m := New(g, Config{})
	var accSum float64
	matchedCount := 0
	for i, tr := range res.Raw {
		path, err := m.Match(tr)
		if err != nil {
			continue
		}
		if !g.ValidPath(path) {
			t.Fatalf("trajectory %d: matched path invalid: %v", i, path)
		}
		accSum += edgeAccuracy(res.Collection.Traj(i).Path, path)
		matchedCount++
	}
	if matchedCount < 25 {
		t.Fatalf("only %d/30 trajectories matched", matchedCount)
	}
	if avg := accSum / float64(matchedCount); avg < 0.9 {
		t.Fatalf("average edge recovery = %.2f, want ≥ 0.9", avg)
	}
}

func TestMatchDegradesGracefullyHighNoise(t *testing.T) {
	g, res := testTraces(t, 15, 25)
	m := New(g, Config{SigmaM: 25, CandidateRadiusM: 90})
	ok := 0
	for _, tr := range res.Raw {
		if path, err := m.Match(tr); err == nil {
			if !g.ValidPath(path) {
				t.Fatal("invalid path returned")
			}
			ok++
		}
	}
	if ok < 8 {
		t.Fatalf("only %d/15 noisy trajectories matched at all", ok)
	}
}

func TestMatchRejectsInvalidTrajectory(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	if _, err := m.Match(&gps.Trajectory{ID: 1}); err == nil {
		t.Fatal("empty trajectory should fail")
	}
}

func TestMatchFarFromNetwork(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	tr := &gps.Trajectory{ID: 1, Records: []gps.Record{
		{Pt: g.BBox().Center(), Time: 0},
		{Pt: g.BBox().Center(), Time: 10},
	}}
	// Move fixes far away: +1 degree latitude ≈ 111 km.
	for i := range tr.Records {
		tr.Records[i].Pt.Lat += 1
	}
	if _, err := m.Match(tr); err == nil {
		t.Fatal("fixes far from any road should fail")
	}
}

func TestMatchToTimed(t *testing.T) {
	g, res := testTraces(t, 20, 4)
	m := New(g, Config{})
	okCount := 0
	for i, tr := range res.Raw {
		timed, err := m.MatchToTimed(tr)
		if err != nil {
			continue
		}
		okCount++
		if err := timed.Validate(g); err != nil {
			t.Fatalf("trajectory %d: %v", i, err)
		}
		truth := res.Collection.Traj(i)
		// Total cost must match the GPS span closely.
		if math.Abs(timed.TotalCost()-truth.TotalCost()) > truth.TotalCost()*0.25+15 {
			t.Fatalf("trajectory %d: timed cost %v vs truth %v",
				i, timed.TotalCost(), truth.TotalCost())
		}
		if timed.Depart != tr.Records[0].Time {
			t.Fatalf("trajectory %d: depart mismatch", i)
		}
	}
	if okCount < 15 {
		t.Fatalf("only %d/20 matched", okCount)
	}
}

func TestCandidatesNearOrderingAndRadius(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	// Take a point on the first edge.
	e := g.Edge(0)
	pt := g.Vertex(e.From).Pt
	cands := m.candidatesNear(m.getSearch(), pt)
	if len(cands) == 0 {
		t.Fatal("no candidates at a vertex location")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].dist < cands[i-1].dist {
			t.Fatal("candidates not sorted by distance")
		}
	}
	for _, c := range cands {
		if c.dist > m.cfg.CandidateRadiusM {
			t.Fatal("candidate outside radius")
		}
		if c.frac < 0 || c.frac > 1 {
			t.Fatalf("frac %v out of range", c.frac)
		}
	}
	if len(cands) > m.cfg.MaxCandidates {
		t.Fatalf("too many candidates: %d", len(cands))
	}
}

func TestRouteDistancesSameEdgeForward(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	e := g.Edge(0)
	pc := candidate{edge: e.ID, frac: 0.2}
	next := []candidate{{edge: e.ID, frac: 0.7}}
	d := m.routeDistances(m.getSearch(), pc, next)
	want := 0.5 * e.LengthM
	if math.Abs(d[0]-want) > 1e-9 {
		t.Fatalf("same-edge distance = %v, want %v", d[0], want)
	}
}

func TestRouteDistancesAdjacentEdge(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	e := g.Edge(0)
	nexts := g.NextEdges(e.ID)
	if len(nexts) == 0 {
		t.Skip("first edge has no continuation in this network")
	}
	ne := g.Edge(nexts[0])
	pc := candidate{edge: e.ID, frac: 0.5}
	next := []candidate{{edge: ne.ID, frac: 0.5}}
	d := m.routeDistances(m.getSearch(), pc, next)
	want := 0.5*e.LengthM + 0.5*ne.LengthM
	if math.Abs(d[0]-want) > 1e-6 {
		t.Fatalf("adjacent distance = %v, want %v", d[0], want)
	}
}

func TestMatcherDefaultsFilled(t *testing.T) {
	g := testNetwork(t)
	m := New(g, Config{})
	def := DefaultConfig()
	if m.cfg != def {
		t.Fatalf("config = %+v, want defaults %+v", m.cfg, def)
	}
}

// TestPropertyMatchedPathsAlwaysValid fuzzes the matcher with varying
// noise and sampling rates: whatever it returns must be a valid simple
// path with positive, finite edge times.
func TestPropertyMatchedPathsAlwaysValid(t *testing.T) {
	g := testNetwork(t)
	for seed := int64(0); seed < 6; seed++ {
		noise := 2 + float64(seed)*6
		gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
			Seed: 100 + seed, NumTrips: 10, EmitGPS: true,
			SamplingIntervalS: 1 + float64(seed), GPSNoiseM: noise,
		})
		res := gen.Generate()
		m := New(g, Config{SigmaM: noise + 2, CandidateRadiusM: 40 + noise*2})
		for i, tr := range res.Raw {
			timed, err := m.MatchToTimed(tr)
			if err != nil {
				continue // unmatchable under heavy noise is acceptable
			}
			if err := timed.Validate(g); err != nil {
				t.Fatalf("seed %d trajectory %d: %v", seed, i, err)
			}
			for _, c := range timed.EdgeCosts {
				if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
					t.Fatalf("seed %d trajectory %d: bad cost %v", seed, i, c)
				}
			}
		}
	}
}
