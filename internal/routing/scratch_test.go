package routing

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// scratchBestPath is the reference BestPath: the same DFS, frontier
// order, bound and incumbent rule, but every prefix's distribution is
// evaluated from scratch by core's CostDistribution (the Σ RT(P, method)
// cost model of the paper) and nothing settles before the kernel. The
// search must answer exactly like it — path, probability, distribution,
// Explored and Pruned — because resuming from the parent's state and
// settling a prefix by its cost-support minimum are shortcuts through
// the same walk.
func scratchBestPath(r *Router, q Query, opt Options) (*Result, error) {
	if opt.Method == "" {
		opt.Method = core.MethodOD
	}
	if opt.MaxExpansions == 0 {
		opt.MaxExpansions = 20000
	}
	if opt.MaxEdges == 0 {
		opt.MaxEdges = 150
	}
	g := r.h.G
	if err := checkEndpoints(g, q); err != nil {
		return nil, err
	}
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if math.IsInf(lb[q.Source], 1) {
		return nil, fmt.Errorf("routing: destination unreachable from source")
	}
	res := &Result{}
	best := 0.0
	visited := make([]bool, g.NumVertices())
	visited[q.Source] = true
	var fr frontier
	var dfs func(prefix graph.Path, v graph.VertexID) error
	dfs = func(prefix graph.Path, v graph.VertexID) error {
		if res.Explored >= opt.MaxExpansions || len(prefix) >= opt.MaxEdges {
			return nil
		}
		outs := fr.push(g, lb, v)
		defer fr.pop(outs)
		for _, eid := range outs {
			e := g.Edge(eid)
			if visited[e.To] || math.IsInf(lb[e.To], 1) {
				continue
			}
			if res.Explored >= opt.MaxExpansions {
				return nil
			}
			np := append(prefix.Clone(), eid)
			qr, err := r.h.CostDistribution(np, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap})
			if err != nil {
				return err
			}
			dist := qr.Dist
			res.Explored++
			if e.To == q.Dest {
				if p := dist.CDF(q.Budget); p > best || res.Path == nil {
					best = p
					res.Path, res.Prob, res.Dist = np, p, dist
				}
				continue
			}
			if dist.CDF(q.Budget-lb[e.To]) <= best {
				res.Pruned++
				continue
			}
			visited[e.To] = true
			err = dfs(append(prefix, eid), e.To)
			visited[e.To] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(nil, q.Source); err != nil {
		return nil, err
	}
	if res.Path == nil {
		return nil, fmt.Errorf("routing: no path to destination found within limits")
	}
	return res, nil
}

// BenchmarkAblationIncrementalRouting compares the search, whose every
// expansion resumes from its parent's state ("path + another edge"),
// against the from-scratch reference that evaluates each prefix anew.
func BenchmarkAblationIncrementalRouting(b *testing.B) {
	g, h := hybridFixture(b)
	r := New(h)
	src := graph.VertexID(20)
	var dst graph.VertexID = -1
	far := 0.0
	for v, d := range g.ShortestDistances(src, graph.FreeFlowWeight) {
		if graph.VertexID(v) != src && d > far && d < 300 {
			far, dst = d, graph.VertexID(v)
		}
	}
	if dst < 0 {
		b.Skip("no destination")
	}
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: far * 2}
	opt := Options{MaxExpansions: 1500}
	for _, c := range []struct {
		name   string
		search func() (*Result, error)
	}{
		{"incremental", func() (*Result, error) { return r.BestPath(q, opt) }},
		{"recompute", func() (*Result, error) { return scratchBestPath(r, q, opt) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.search(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
