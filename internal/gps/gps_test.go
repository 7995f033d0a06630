package gps

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/graph"
)

// lineGraph builds a simple chain v0 -> v1 -> ... -> vn with one edge
// between consecutive vertices plus a branch at v1.
func lineGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= n; i++ {
		vs = append(vs, b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9}))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(vs[i], vs[i+1], 200, 50, graph.ClassSecondary)
	}
	// Branch edge from v1 to a side vertex.
	side := b.AddVertex(geo.Point{Lat: 57.0005, Lon: 9.92})
	b.AddEdge(vs[1], side, 200, 50, graph.ClassResidential)
	return b.Freeze()
}

func TestSecondsOfDay(t *testing.T) {
	if SecondsOfDay(0) != 0 {
		t.Fatal("zero")
	}
	if got := SecondsOfDay(86400 + 3600); got != 3600 {
		t.Fatalf("day wrap: %v", got)
	}
	if got := SecondsOfDay(-3600); got != 86400-3600 {
		t.Fatalf("negative wrap: %v", got)
	}
}

func TestTrajectoryValidate(t *testing.T) {
	tr := &Trajectory{ID: 1, Records: []Record{
		{Time: 10}, {Time: 20}, {Time: 30},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Duration(); got != 20 {
		t.Fatalf("duration = %v", got)
	}
	bad := &Trajectory{ID: 2, Records: []Record{{Time: 10}, {Time: 10}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-increasing times should fail")
	}
	short := &Trajectory{ID: 3, Records: []Record{{Time: 1}}}
	if err := short.Validate(); err == nil {
		t.Fatal("single record should fail")
	}
	if (&Trajectory{}).Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestMatchedValidate(t *testing.T) {
	g := lineGraph(t, 4)
	ok := &Matched{ID: 1, Path: graph.Path{0, 1, 2}, Depart: 100, EdgeCosts: []float64{10, 20, 30}}
	if err := ok.Validate(g); err != nil {
		t.Fatal(err)
	}
	cases := []*Matched{
		{ID: 2, Path: graph.Path{0, 2}, EdgeCosts: []float64{1, 2}},                          // invalid path
		{ID: 3, Path: graph.Path{0, 1}, EdgeCosts: []float64{1}},                             // cost count
		{ID: 4, Path: graph.Path{0, 1}, EdgeCosts: []float64{1, -2}},                         // negative cost
		{ID: 5, Path: graph.Path{0, 1}, EdgeCosts: []float64{1, math.NaN()}},                 // NaN
		{ID: 6, Path: graph.Path{0, 1}, EdgeCosts: []float64{1, 2}, Emissions: []float64{1}}, // emissions count
	}
	for _, m := range cases {
		if err := m.Validate(g); err == nil {
			t.Errorf("trajectory %d should fail validation", m.ID)
		}
	}
}

func TestMatchedTimes(t *testing.T) {
	m := &Matched{Path: graph.Path{0, 1, 2}, Depart: 1000, EdgeCosts: []float64{10, 20, 30}}
	if got := m.TotalCost(); got != 60 {
		t.Fatalf("TotalCost = %v", got)
	}
	if got := m.ArrivalAt(0); got != 1000 {
		t.Fatalf("ArrivalAt(0) = %v", got)
	}
	if got := m.ArrivalAt(2); got != 1030 {
		t.Fatalf("ArrivalAt(2) = %v", got)
	}
	if got := m.CostOfSubPath(1, 2); got != 50 {
		t.Fatalf("CostOfSubPath = %v", got)
	}
}

func collectionFixture(t testing.TB) (*graph.Graph, *Collection) {
	t.Helper()
	g := lineGraph(t, 4)
	trajs := []*Matched{
		{ID: 0, Path: graph.Path{0, 1, 2, 3}, Depart: 100, EdgeCosts: []float64{10, 10, 10, 10}},
		{ID: 1, Path: graph.Path{0, 1, 2}, Depart: 200, EdgeCosts: []float64{12, 11, 10}},
		{ID: 2, Path: graph.Path{1, 2, 3}, Depart: 300, EdgeCosts: []float64{9, 8, 7}},
		{ID: 3, Path: graph.Path{2, 3}, Depart: 400, EdgeCosts: []float64{5, 5}},
	}
	for _, m := range trajs {
		if err := m.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
	return g, NewCollection(trajs, 1234)
}

func TestCollectionIndexing(t *testing.T) {
	_, c := collectionFixture(t)
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Records() != 1234 {
		t.Fatalf("records = %d", c.Records())
	}
	// Edge 2 appears in all four trajectories.
	if got := len(c.EdgeOccurrences(2)); got != 4 {
		t.Fatalf("occurrences of e2 = %d, want 4", got)
	}
	if got := len(c.EdgeOccurrences(99)); got != 0 {
		t.Fatalf("occurrences of absent edge = %d", got)
	}
	if got := c.NumEdgesWithData(); got != 4 {
		t.Fatalf("covered edges = %d, want 4 (0..3)", got)
	}
}

func TestOccurrencesOfPath(t *testing.T) {
	_, c := collectionFixture(t)
	occ := c.OccurrencesOfPath(graph.Path{1, 2})
	// T0 at pos 1, T1 at pos 1, T2 at pos 0.
	if len(occ) != 3 {
		t.Fatalf("occurrences of <e1,e2> = %d, want 3", len(occ))
	}
	occ = c.OccurrencesOfPath(graph.Path{0, 1, 2, 3})
	if len(occ) != 1 || occ[0].Traj != 0 {
		t.Fatalf("occurrences of full path = %v", occ)
	}
	if got := c.OccurrencesOfPath(nil); got != nil {
		t.Fatal("empty path should have no occurrences")
	}
	if got := c.OccurrencesOfPath(graph.Path{3, 0}); got != nil {
		t.Fatal("non-occurring sequence")
	}
}

func TestSubsetAndFilter(t *testing.T) {
	_, c := collectionFixture(t)
	s := c.Subset(2)
	if s.Len() != 2 {
		t.Fatalf("subset len = %d", s.Len())
	}
	if s.Records() != 1234/2 {
		t.Fatalf("subset records = %d", s.Records())
	}
	if got := c.Subset(100); got != c {
		t.Fatal("oversized subset should return the original")
	}
	f := c.Filter(func(m *Matched) bool { return m.ID%2 == 0 })
	if f.Len() != 2 {
		t.Fatalf("filtered len = %d", f.Len())
	}
	for i := 0; i < f.Len(); i++ {
		if f.Traj(i).ID%2 != 0 {
			t.Fatal("filter kept wrong trajectory")
		}
	}
}

func TestCollectionSerializationRoundTrip(t *testing.T) {
	g, c := collectionFixture(t)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadCollection(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() || c2.Records() != c.Records() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", c2.Len(), c2.Records(), c.Len(), c.Records())
	}
	for i := 0; i < c.Len(); i++ {
		a, b := c.Traj(i), c2.Traj(i)
		if a.ID != b.ID || !a.Path.Equal(b.Path) {
			t.Fatalf("trajectory %d differs", i)
		}
		if math.Abs(a.Depart-b.Depart) > 0.002 {
			t.Fatalf("trajectory %d departure drifted", i)
		}
		for j := range a.EdgeCosts {
			if math.Abs(a.EdgeCosts[j]-b.EdgeCosts[j]) > 0.002 {
				t.Fatalf("trajectory %d cost %d drifted", i, j)
			}
		}
	}
}

func TestCollectionSerializationWithEmissions(t *testing.T) {
	g := lineGraph(t, 3)
	c := NewCollection([]*Matched{{
		ID: 7, Path: graph.Path{0, 1}, Depart: 100,
		EdgeCosts: []float64{10, 20}, Emissions: []float64{55.5, 66.25},
	}}, 42)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadCollection(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	m := c2.Traj(0)
	if m.Emissions == nil || math.Abs(m.Emissions[1]-66.25) > 0.002 {
		t.Fatalf("emissions lost: %v", m.Emissions)
	}
}

func TestReadCollectionErrors(t *testing.T) {
	g := lineGraph(t, 3)
	cases := []string{
		"",
		"bogus\n",
		"trajectories x y\n",
		"trajectories 1 0\nX 1 2\n",
		"trajectories 1 0\nT a 0 0:1\n",
		"trajectories 1 0\nT 1 0 zz\n",
		"trajectories 1 0\nT 1 0 0:bad\n",
		"trajectories 2 0\nT 1 0 0:10 1:10\n",   // count mismatch
		"trajectories 1 0\nT 1 0 0:10 2:10\n",   // invalid path
		"trajectories 1 0\nT 1 0 0:10:5 1:10\n", // inconsistent emissions
	}
	for i, c := range cases {
		if _, err := ReadCollection(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}
