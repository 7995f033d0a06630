package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
)

// table1Hybrid trains the paper's Table 1 situation on a 5-edge chain
// (the fixture of core's allocation gate): trajectories on
// <e0,e1,e2,e3> around 8:00 and on <e3,e4> a little later.
func table1Hybrid(t testing.TB) (*graph.Graph, *core.HybridGraph) {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= 5; i++ {
		vs = append(vs, b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}))
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
	}
	g := b.Freeze()
	rnd := rand.New(rand.NewSource(42))
	var trajs []*gps.Matched
	for i := 0; i < 40; i++ {
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: graph.Path{0, 1, 2, 3},
			Depart:    float64(i%10)*gps.SecondsPerDay + 8*3600 + rnd.Float64()*600,
			EdgeCosts: []float64{30 + rnd.Float64()*10, 35 + rnd.Float64()*10, 28 + rnd.Float64()*8, 33 + rnd.Float64()*9},
		})
	}
	for i := 0; i < 40; i++ {
		trajs = append(trajs, &gps.Matched{
			ID: int64(40 + i), Path: graph.Path{3, 4},
			Depart:    float64(i%10)*gps.SecondsPerDay + 8*3600 + 100 + rnd.Float64()*600,
			EdgeCosts: []float64{31 + rnd.Float64()*9, 27 + rnd.Float64()*8},
		})
	}
	params := core.DefaultParams()
	params.MaxRank = 4
	h, err := core.Build(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return g, h
}

// expansionAllocBudget bounds what one DFS expansion of a BestPath
// allocates on the Table 1 chain with warm pools, end to end: the
// search's own set-up (lower bounds and the result) and its one
// incumbent's path and distribution, spread over its five expansions —
// an expansion itself allocates nothing (TestSearchAllocsDoNotGrowWithExplored).
// Measured 1.8 (OD) and 1.6 (LB) per expansion. While every child was
// built from scratch — its path, state, decomposition, chain-state
// list, chain states, Multis and accumulator axes, and the marginal its
// pruning bound read — it measured 21.0 and 15.4; while every
// expansion also probed and fed a memo (a key, a lookup and an offer)
// 23.0 and 17.4; the search that kept every state's last product,
// boxed each reverse-search push and took three allocations per
// decomposition measured 31.0 and 30.0; before that, the one that
// re-folded the parent's state for every child, copied and
// reflect-sorted every node's out-edges and built each key in three
// pieces measured 34.2 and 38.0. The budgets leave one object of
// headroom.
var expansionAllocBudget = map[core.Method]float64{
	core.MethodOD: 2.8,
	core.MethodLB: 2.6,
}

func TestBestPathExpansionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch at random")
	}
	_, h := table1Hybrid(t)
	r := New(h)
	q := Query{Source: 0, Dest: 5, Depart: 8 * 3600, Budget: 400}
	for _, m := range []core.Method{core.MethodOD, core.MethodLB} {
		opt := Options{Method: m}
		explored := 0
		n := testing.AllocsPerRun(100, func() {
			res, err := r.BestPath(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			explored = res.Explored
		})
		if explored != 5 {
			t.Fatalf("%s: the chain search explored %d prefixes, want 5", m, explored)
		}
		per := n / float64(explored)
		t.Logf("%s: %.1f allocations per expansion", m, per)
		if per > expansionAllocBudget[m] {
			t.Errorf("%s: a BestPath allocates %.1f objects per expansion (%v per search), budget %v", m, per, n, expansionAllocBudget[m])
		}
	}
}

// searchAllocSlack is how far apart the allocations of two searches on
// one warm fixture may lie whatever their explored counts: what a
// search allocates is its set-up (the lower bounds, the incumbent
// heap, the result) and one path and distribution per incumbent it
// keeps, never anything per explored prefix. Each incumbent costs four
// objects, so the slack admits a few more of them.
const searchAllocSlack = 24

// TestSearchAllocsDoNotGrowWithExplored takes, among random queries on
// the routing fixture, the answered search that explores the fewest
// prefixes and the one that explores the most — at least ten times as
// many — and holds their allocations within searchAllocSlack of each
// other, for every method.
func TestSearchAllocsDoNotGrowWithExplored(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled searchers and Multis at random")
	}
	g, h := hybridFixture(t)
	r := New(h)
	qs := randomQueries(t, g, rand.New(rand.NewSource(53)), 40)
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		opt := Options{Method: m}
		var small, large *Query
		var fewest, most int
		for i := range qs {
			res, err := r.BestPath(qs[i], opt)
			if err != nil {
				continue
			}
			if small == nil || res.Explored < fewest {
				small, fewest = &qs[i], res.Explored
			}
			if large == nil || res.Explored > most {
				large, most = &qs[i], res.Explored
			}
		}
		if small == nil || most < 10*fewest {
			t.Fatalf("%s: the explored counts span %d to %d, less than the tenfold the gate needs", m, fewest, most)
		}
		allocs := func(q Query) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := r.BestPath(q, opt); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(*small), allocs(*large)
		t.Logf("%s: %d explored, %.1f allocations; %d explored, %.1f allocations", m, fewest, a, most, b)
		if math.Abs(b-a) > searchAllocSlack {
			t.Errorf("%s: a search of %d prefixes allocates %.1f objects and one of %d allocates %.1f: more than %d apart", m, fewest, a, most, b, searchAllocSlack)
		}
	}
}
