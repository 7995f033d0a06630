// Skyline: probabilistic top-k and stochastic-skyline routing. The
// top-k query ranks paths by probability of on-time arrival; the
// skyline keeps only paths no rational traveller would discard —
// those not first-order stochastically dominated by an alternative.
//
// Run with:
//
//	go run ./examples/skyline
package main

import (
	"fmt"
	"log"
	"math"

	pathcost "repro"
	"repro/internal/graph"
	"repro/internal/routing"
)

func main() {
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test",
		Trips:  8000,
		Seed:   9,
	})
	if err != nil {
		log.Fatal(err)
	}

	src, dst, ff := pickPair(sys)
	depart := 8 * 3600.0
	budget := ff * 2
	fmt.Printf("top-3 paths %d → %d at 08:00, budget %.0fs\n\n", src, dst, budget)

	topk, err := sys.TopKRoutes(src, dst, depart, budget, 3, pathcost.OD)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range topk {
		fmt.Printf("#%d: P(on time) = %.3f  %2d edges  mean %.0fs  p90 %.0fs\n",
			i+1, r.Prob, len(r.Path), r.Dist.Mean(), r.Dist.Quantile(0.9))
	}

	sky, err := sys.Router().SkylinePaths(routing.Query{
		Source: src, Dest: dst, Depart: depart, Budget: budget,
	}, 3, routing.Options{Method: pathcost.OD})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstochastic skyline keeps %d of %d candidates\n", len(sky), len(topk))
	fmt.Println("(a kept path is not dominated: no alternative is at least as")
	fmt.Println("likely to arrive by *every* deadline)")
}

func pickPair(sys *pathcost.System) (pathcost.VertexID, pathcost.VertexID, float64) {
	src := pathcost.VertexID(30)
	dists := sys.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	var dst pathcost.VertexID = -1
	best := 0.0
	for v, d := range dists {
		if pathcost.VertexID(v) != src && !math.IsInf(d, 1) && d > best && d < 250 {
			best = d
			dst = pathcost.VertexID(v)
		}
	}
	if dst < 0 {
		log.Fatal("no destination reachable")
	}
	return src, dst, best
}
