package routing_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// exampleRouter trains a small hybrid graph and picks a reachable
// origin–destination pair; shared by the runnable examples below.
func exampleRouter() (*routing.Router, graph.VertexID, graph.VertexID, float64, error) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 5, NumTrips: 3000,
	})
	params := core.DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	h, err := core.Build(g, gen.Generate().Collection, params)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	src := graph.VertexID(10)
	dist := g.ShortestDistances(src, graph.FreeFlowWeight)
	dst, best := graph.VertexID(-1), 0.0
	for v, d := range dist {
		if graph.VertexID(v) != src && d > best && d < 400 {
			best = d
			dst = graph.VertexID(v)
		}
	}
	return routing.New(h), src, dst, best, nil
}

// ExampleRouter_BestPath answers a probabilistic budget query: the
// path from src to dst that maximizes the probability of arriving
// within the budget, departing at 08:00. Each expansion extends its
// parent's chain state by one factor instead of re-evaluating the
// candidate path.
func ExampleRouter_BestPath() {
	r, src, dst, freeFlow, err := exampleRouter()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := r.BestPath(routing.Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: freeFlow * 2,
	}, routing.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("path found:", len(res.Path) > 0)
	fmt.Println("on-time probability in [0,1]:", res.Prob >= 0 && res.Prob <= 1)
	fmt.Println("distribution has mass:", res.Dist.ProbWithin(1e12) > 0.99)
	// Output:
	// path found: true
	// on-time probability in [0,1]: true
	// distribution has mass: true
}

// ExampleRouter_TopKPaths ranks the k best loop-free paths by their
// probability of arriving within the budget.
func ExampleRouter_TopKPaths() {
	r, src, dst, freeFlow, err := exampleRouter()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	routes, err := r.TopKPaths(routing.Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: freeFlow * 2,
	}, 3, routing.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("got 1..3 routes:", len(routes) >= 1 && len(routes) <= 3)
	sorted := true
	for i := 1; i < len(routes); i++ {
		if routes[i].Prob > routes[i-1].Prob {
			sorted = false
		}
	}
	fmt.Println("descending by probability:", sorted)
	// Output:
	// got 1..3 routes: true
	// descending by probability: true
}
