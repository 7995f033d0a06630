package graph

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// paperGraph builds the road network of Figure 2(a): vertices VA..VF
// and edges e1..e6 (IDs 0..5 here).
//
//	e1: VA->VB   e2: VB->VC   e3: VC->VD   e4: VD->VE
//	e5: VE->VF   e6: VB->VE (stand-in for the extra edge)
func paperGraph(t testing.TB) (*Graph, []EdgeID) {
	t.Helper()
	b := NewBuilder()
	pts := []geo.Point{
		{Lat: 57.00, Lon: 9.90}, // VA
		{Lat: 57.01, Lon: 9.90}, // VB
		{Lat: 57.02, Lon: 9.90}, // VC
		{Lat: 57.02, Lon: 9.92}, // VD
		{Lat: 57.01, Lon: 9.92}, // VE
		{Lat: 57.00, Lon: 9.92}, // VF
	}
	var vs []VertexID
	for _, p := range pts {
		vs = append(vs, b.AddVertex(p))
	}
	type ed struct{ f, t int }
	eds := []ed{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 4}}
	var es []EdgeID
	for _, e := range eds {
		es = append(es, b.AddEdge(vs[e.f], vs[e.t], 500, 50, ClassSecondary))
	}
	return b.Freeze(), es
}

func TestBuilderAndAccessors(t *testing.T) {
	g, es := paperGraph(t)
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	e := g.Edge(es[0])
	if e.From != 0 || e.To != 1 {
		t.Fatalf("edge 0 endpoints = %d->%d, want 0->1", e.From, e.To)
	}
	if got := e.FreeFlowSeconds(); math.Abs(got-36) > 1e-9 {
		t.Fatalf("FreeFlowSeconds = %v, want 36 (500m at 50km/h)", got)
	}
	// VB has two out edges: e2 and e6.
	if got := len(g.Out(1)); got != 2 {
		t.Fatalf("out(VB) = %d, want 2", got)
	}
	if got := len(g.In(4)); got != 2 { // VE: e4 and e6
		t.Fatalf("in(VE) = %d, want 2", got)
	}
}

func TestAdjacency(t *testing.T) {
	g, es := paperGraph(t)
	if !g.Adjacent(es[0], es[1]) {
		t.Error("e1 and e2 should be adjacent")
	}
	if g.Adjacent(es[1], es[0]) {
		t.Error("e2 then e1 should not be adjacent")
	}
	next := g.NextEdges(es[0])
	if len(next) != 2 {
		t.Fatalf("NextEdges(e1) = %v, want 2 edges", next)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder, v VertexID)
	}{
		{"out of range", func(b *Builder, v VertexID) { b.AddEdge(v, v+5, 10, 50, ClassPrimary) }},
		{"self loop", func(b *Builder, v VertexID) { b.AddEdge(v, v, 10, 50, ClassPrimary) }},
		{"bad length", func(b *Builder, v VertexID) {
			w := b.AddVertex(geo.Point{Lat: 1, Lon: 1})
			b.AddEdge(v, w, 0, 50, ClassPrimary)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			b := NewBuilder()
			v := b.AddVertex(geo.Point{Lat: 0, Lon: 0})
			c.f(b, v)
		})
	}
}

func TestValidPath(t *testing.T) {
	g, es := paperGraph(t)
	cases := []struct {
		name string
		p    Path
		want bool
	}{
		{"single edge", Path{es[0]}, true},
		{"chain e1..e5", Path{es[0], es[1], es[2], es[3], es[4]}, true},
		{"shortcut e1,e6,e5", Path{es[0], es[5], es[4]}, true},
		{"empty", Path{}, false},
		{"non adjacent", Path{es[0], es[2]}, false},
		{"bad id", Path{99}, false},
		{"negative id", Path{-2}, false},
	}
	for _, c := range cases {
		if got := g.ValidPath(c.p); got != c.want {
			t.Errorf("%s: ValidPath(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestValidPathRejectsVertexRevisit(t *testing.T) {
	// Build a small cycle a->b->c->a and check the full loop is
	// rejected (vertices must be distinct).
	b := NewBuilder()
	va := b.AddVertex(geo.Point{Lat: 0, Lon: 0})
	vb := b.AddVertex(geo.Point{Lat: 0, Lon: 0.01})
	vc := b.AddVertex(geo.Point{Lat: 0.01, Lon: 0})
	e1 := b.AddEdge(va, vb, 100, 50, ClassPrimary)
	e2 := b.AddEdge(vb, vc, 100, 50, ClassPrimary)
	e3 := b.AddEdge(vc, va, 100, 50, ClassPrimary)
	g := b.Freeze()
	if !g.ValidPath(Path{e1, e2}) {
		t.Fatal("open chain should be valid")
	}
	if g.ValidPath(Path{e1, e2, e3}) {
		t.Fatal("full cycle revisits the start vertex; must be invalid")
	}
}

func TestShortestPath(t *testing.T) {
	g, es := paperGraph(t)
	// VA -> VF: direct chain is 5 edges (2500m); via e6 is 3 edges (1500m).
	p, dist, ok := g.ShortestPath(0, 5, LengthWeight)
	if !ok {
		t.Fatal("no path found")
	}
	want := Path{es[0], es[5], es[4]}
	if !p.Equal(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	if dist != 1500 {
		t.Fatalf("dist = %v, want 1500", dist)
	}
	if !g.ValidPath(p) {
		t.Fatal("shortest path must be valid")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g, _ := paperGraph(t)
	// Nothing leaves VF, so VF -> VA is unreachable.
	if _, _, ok := g.ShortestPath(5, 0, LengthWeight); ok {
		t.Fatal("expected unreachable")
	}
	if _, _, ok := g.ShortestPath(2, 2, LengthWeight); ok {
		t.Fatal("src == dst should report no path")
	}
}

func TestShortestDistancesConsistent(t *testing.T) {
	g, _ := paperGraph(t)
	d := g.ShortestDistances(0, LengthWeight)
	for v := VertexID(1); int(v) < g.NumVertices(); v++ {
		p, dist, ok := g.ShortestPath(0, v, LengthWeight)
		if !ok {
			if !math.IsInf(d[v], 1) {
				t.Errorf("vertex %d: distances disagree on reachability", v)
			}
			continue
		}
		if math.Abs(d[v]-dist) > 1e-9 {
			t.Errorf("vertex %d: ShortestDistances %v vs ShortestPath %v", v, d[v], dist)
		}
		if !g.ValidPath(p) {
			t.Errorf("vertex %d: invalid path", v)
		}
	}
}

func TestReverseShortestDistances(t *testing.T) {
	g, _ := paperGraph(t)
	rd := g.ReverseShortestDistances(5, LengthWeight)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if v == 5 {
			if rd[v] != 0 {
				t.Errorf("dist from dst to itself = %v", rd[v])
			}
			continue
		}
		_, dist, ok := g.ShortestPath(v, 5, LengthWeight)
		if !ok {
			if !math.IsInf(rd[v], 1) {
				t.Errorf("vertex %d: reverse distances disagree on reachability", v)
			}
			continue
		}
		if math.Abs(rd[v]-dist) > 1e-9 {
			t.Errorf("vertex %d: reverse %v vs forward %v", v, rd[v], dist)
		}
	}
}

func TestRandomWalkPath(t *testing.T) {
	g, es := paperGraph(t)
	rnd := func(n int) int { return 0 }
	p := g.RandomWalkPath(es[0], 3, rnd)
	if p == nil {
		t.Fatal("walk failed")
	}
	if len(p) != 3 {
		t.Fatalf("walk length = %d, want 3", len(p))
	}
	if !g.ValidPath(p) {
		t.Fatalf("walk produced invalid path %v", p)
	}
	// Asking for more edges than any simple path has must fail.
	if p := g.RandomWalkPath(es[0], 10, rnd); p != nil {
		t.Fatalf("expected dead end, got %v", p)
	}
	if p := g.RandomWalkPath(es[0], 0, rnd); p != nil {
		t.Fatalf("n=0 should return nil, got %v", p)
	}
}

func TestRoadClassString(t *testing.T) {
	if ClassMotorway.String() != "motorway" || ClassResidential.String() != "residential" {
		t.Error("unexpected class names")
	}
	if RoadClass(99).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestGraphBBox(t *testing.T) {
	g, _ := paperGraph(t)
	if bb, want := g.BBox(), (geo.BBox{MinLat: 57.00, MinLon: 9.90, MaxLat: 57.02, MaxLon: 9.92}); bb != want {
		t.Fatalf("bbox = %+v, want %+v", bb, want)
	}
}
