package routing

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// scratchBestPath is the reference BestPath: the top-1 answer of
// scratchSearch, with its counters.
func scratchBestPath(r *Router, q Query, opt Options) (*Result, error) {
	ranked, explored, pruned, err := scratchSearch(r, q, 1, opt)
	if err != nil {
		return nil, err
	}
	best := ranked[0]
	return &Result{Path: best.Path, Prob: best.Prob, Dist: best.Dist, Explored: explored, Pruned: pruned}, nil
}

// scratchSearch is the reference search: the same DFS, frontier order,
// bound, incumbent heap and ranking, but every prefix's distribution is
// evaluated from scratch by core's CostDistribution (the Σ RT(P,
// method) cost model of the paper), nothing settles before the kernel,
// and nothing is pooled, resumed or recycled. The search must answer
// exactly like it — paths, probabilities, distributions, Explored and
// Pruned — because resuming from the parent's state, settling a prefix
// by its cost-support minimum and building children in recycled slots
// are shortcuts through the same walk.
func scratchSearch(r *Router, q Query, k int, opt Options) ([]TopKResult, int, int, error) {
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
		return nil, 0, 0, err
	}
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if math.IsInf(lb[q.Source], 1) {
		return nil, 0, 0, fmt.Errorf("routing: destination unreachable from source")
	}
	s := &searcher{k: k}
	visited := make([]bool, g.NumVertices())
	visited[q.Source] = true
	var fr frontier
	var dfs func(prefix graph.Path, v graph.VertexID) error
	dfs = func(prefix graph.Path, v graph.VertexID) error {
		if s.explored >= opt.MaxExpansions || len(prefix) >= opt.MaxEdges {
			return nil
		}
		outs := fr.push(g, lb, v)
		defer fr.pop(outs)
		for _, eid := range outs {
			e := g.Edge(eid)
			if visited[e.To] || math.IsInf(lb[e.To], 1) {
				continue
			}
			if s.explored >= opt.MaxExpansions {
				return nil
			}
			np := append(prefix.Clone(), eid)
			qr, err := r.h.CostDistribution(np, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap})
			if err != nil {
				return err
			}
			dist := qr.Dist
			s.explored++
			if e.To == q.Dest {
				p := dist.CDF(q.Budget)
				x := TopKResult{Path: np, Prob: p, Dist: dist}
				switch {
				case len(s.top) < k:
					s.top = append(s.top, x)
					s.top.up(len(s.top) - 1)
				case p > s.top[0].Prob:
					s.top[0] = x
					s.top.down(0, len(s.top))
				}
				continue
			}
			if dist.CDF(q.Budget-lb[e.To]) <= s.kth() {
				s.pruned++
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
		return nil, 0, 0, err
	}
	if len(s.top) == 0 {
		return nil, 0, 0, fmt.Errorf("routing: no path to destination found within limits")
	}
	return s.rank(), s.explored, s.pruned, nil
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
