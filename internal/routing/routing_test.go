package routing

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// buildHybrid constructs a small trained hybrid graph for routing
// tests, shared across tests via a package-level cache (training is
// the expensive part).
var cached struct {
	g *graph.Graph
	h *core.HybridGraph
}

func hybridFixture(t testing.TB) (*graph.Graph, *core.HybridGraph) {
	t.Helper()
	if cached.h != nil {
		return cached.g, cached.h
	}
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 5, NumTrips: 3000,
	})
	res := gen.Generate()
	params := core.DefaultParams()
	params.MaxRank = 4
	params.Beta = 20
	h, err := core.Build(g, res.Collection, params)
	if err != nil {
		t.Fatal(err)
	}
	cached.g, cached.h = g, h
	return g, h
}

// endpoints returns the first and the last vertex p visits.
func endpoints(g *graph.Graph, p graph.Path) (from, to graph.VertexID) {
	return g.Edge(p[0]).From, g.Edge(p[len(p)-1]).To
}

// pickQuery finds a reachable OD pair a few edges apart.
func pickQuery(t testing.TB, g *graph.Graph) (graph.VertexID, graph.VertexID, float64) {
	t.Helper()
	src := graph.VertexID(10)
	dist := g.ShortestDistances(src, graph.FreeFlowWeight)
	var dst graph.VertexID = -1
	bestD := 0.0
	for v, d := range dist {
		if !math.IsInf(d, 1) && d > bestD && d < 400 {
			bestD = d
			dst = graph.VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no suitable destination")
	}
	return src, dst, bestD
}

func TestBestPathFindsValidRoute(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	res, err := r.BestPath(Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 3,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.ValidPath(res.Path) {
		t.Fatalf("invalid path %v", res.Path)
	}
	if from, to := endpoints(g, res.Path); from != src || to != dst {
		t.Fatalf("path endpoints %v..%v, want %v..%v", from, to, src, dst)
	}
	if res.Prob <= 0 || res.Prob > 1 {
		t.Fatalf("prob = %v", res.Prob)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
}

func TestBestPathProbMonotoneInBudget(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	prev := -1.0
	for _, mult := range []float64{1.2, 2, 4} {
		res, err := r.BestPath(Query{
			Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * mult,
		}, Options{})
		if err != nil {
			t.Fatalf("budget ×%v: %v", mult, err)
		}
		if res.Prob < prev-1e-9 {
			t.Fatalf("probability decreased with larger budget: %v -> %v", prev, res.Prob)
		}
		prev = res.Prob
	}
}

func TestBestPathMethodsAgreeOnEndpoints(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		res, err := r.BestPath(Query{
			Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5,
		}, Options{Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if from, to := endpoints(g, res.Path); from != src || to != dst {
			t.Fatalf("%s: wrong endpoints", m)
		}
	}
}

func TestBestPathIncrementalMatchesBatchSearch(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2}
	inc, err := r.BestPath(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := scratchBestPath(r, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Resuming from the parent's state is a shortcut through the same
	// walk: the same path at the same probability.
	if !inc.Path.Equal(bat.Path) || inc.Prob != bat.Prob {
		t.Fatalf("incremental %v p=%v vs from-scratch %v p=%v", inc.Path, inc.Prob, bat.Path, bat.Prob)
	}
}

func TestBestPathErrors(t *testing.T) {
	g, h := hybridFixture(t)
	r := New(h)
	if _, err := r.BestPath(Query{Source: 1, Dest: 1, Budget: 100}, Options{}); err == nil {
		t.Fatal("source == dest accepted")
	}
	// A sink vertex (no outgoing edges back) may not exist in this
	// network; use an impossible budget instead: probability can be 0
	// but a path must still be reported (the best available).
	src, dst, _ := pickQuery(t, g)
	res, err := r.BestPath(Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: 1}, Options{})
	if err == nil && res.Prob > 0.01 {
		t.Fatalf("1-second budget should have ~0 probability, got %v", res.Prob)
	}
}

// A query naming a vertex the graph does not have is an error from
// every search entry point, not an index panic in the lower-bound
// search: only the HTTP layer used to check.
func TestSearchRejectsOutOfRangeVertex(t *testing.T) {
	g, h := table1Hybrid(t)
	r := New(h)
	nv := graph.VertexID(g.NumVertices())
	entries := map[string]func(Query) error{
		"BestPath": func(q Query) error {
			_, err := r.BestPathCtx(nil, q, Options{})
			return err
		},
		"TopKPaths": func(q Query) error {
			_, err := r.TopKPathsCtx(nil, q, 3, Options{})
			return err
		},
		"SkylinePaths": func(q Query) error {
			_, err := r.SkylinePaths(q, 3, Options{})
			return err
		},
	}
	cases := []struct {
		src, dst graph.VertexID
		want     string
	}{
		{0, nv, fmt.Sprintf("destination vertex %d out of range [0, %d)", nv, nv)},
		{-1, 0, fmt.Sprintf("source vertex -1 out of range [0, %d)", nv)},
		{nv, 0, fmt.Sprintf("source vertex %d out of range [0, %d)", nv, nv)},
		{0, -1, fmt.Sprintf("destination vertex -1 out of range [0, %d)", nv)},
		{nv + 7, nv + 7, fmt.Sprintf("source vertex %d out of range [0, %d)", nv+7, nv)},
	}
	for name, search := range entries {
		for _, c := range cases {
			err := search(Query{Source: c.src, Dest: c.dst, Depart: 8 * 3600, Budget: 400})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s(%d → %d): error %v, want %q", name, c.src, c.dst, err, c.want)
			}
		}
		// In range, the search still runs.
		if err := search(Query{Source: 0, Dest: nv - 1, Depart: 8 * 3600, Budget: 400}); err != nil {
			t.Errorf("%s(0 → %d): %v", name, nv-1, err)
		}
	}
}

func TestFastestPath(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	p, d, err := r.FastestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !g.ValidPath(p) {
		t.Fatal("invalid fastest path")
	}
	if math.Abs(d-ff) > 1e-9 {
		t.Fatalf("fastest = %v, want %v", d, ff)
	}
}

func TestPruningHappens(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	res, err := r.BestPath(Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 1.5,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 && res.Explored > 100 {
		t.Fatal("large search with no pruning suggests the bound is broken")
	}
}
