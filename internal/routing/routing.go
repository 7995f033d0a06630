package routing

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hist"
)

// Query is a probabilistic budget query: find the path from Source to
// Dest departing at Depart that maximizes P(travel time ≤ Budget).
type Query struct {
	Source, Dest graph.VertexID
	Depart       float64
	Budget       float64 // seconds
}

// Options tunes the search.
type Options struct {
	// Method selects the cost estimator (OD by default); RankCap caps
	// OD's variable ranks.
	Method  core.Method
	RankCap int
	// Incremental reuses chain states along the DFS ("path + another
	// edge", Section 4.3); when false every prefix is recomputed from
	// scratch, which is the Σ RT(P, method) cost model of the paper.
	Incremental bool
	// MaxExpansions bounds the number of explored prefixes (0 = the
	// default of 20000).
	MaxExpansions int
	// MaxEdges bounds candidate path cardinality (0 = 150).
	MaxEdges int
}

// Result reports the best path found.
type Result struct {
	Path     graph.Path
	Prob     float64 // P(cost ≤ budget) under the estimator
	Dist     *hist.Histogram
	Explored int // prefixes whose distribution was evaluated
	Pruned   int // prefixes cut by the probabilistic bound
	Elapsed  time.Duration
}

// Router answers stochastic routing queries over one hybrid graph.
// It is safe for concurrent use. Each expansion resumes from its
// parent's state in the search; no state is shared across queries.
type Router struct {
	h *core.HybridGraph
}

// New creates a Router.
func New(h *core.HybridGraph) *Router {
	return &Router{h: h}
}

// extendWithin is the extension every incremental expansion makes; a
// variable so tests can count the children it settles.
var extendWithin = (*core.HybridGraph).ExtendPathWithin

// BestPath runs the DFS budget query. It returns an error when the
// destination is unreachable or no path satisfies the budget with
// positive probability.
func (r *Router) BestPath(q Query, opt Options) (*Result, error) {
	return r.BestPathCtx(nil, q, opt)
}

// BestPathCtx is BestPath bounded by ctx (nil = unbounded): the
// deadline is checked once per expansion, and a search it cuts short
// returns ctx's error and no partial result.
func (r *Router) BestPathCtx(ctx context.Context, q Query, opt Options) (*Result, error) {
	start := time.Now()
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
	// Admissible remaining-time lower bounds (free-flow Dijkstra on the
	// reverse graph).
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if math.IsInf(lb[q.Source], 1) {
		return nil, fmt.Errorf("routing: destination unreachable from source")
	}

	res := &Result{}
	best := 0.0
	visited := make([]bool, g.NumVertices())
	visited[q.Source] = true
	var fr frontier

	var dfs func(prefix graph.Path, state *core.PathState, v graph.VertexID) error
	dfs = func(prefix graph.Path, state *core.PathState, v graph.VertexID) error {
		if res.Explored >= opt.MaxExpansions || len(prefix) >= opt.MaxEdges {
			return nil
		}
		outs := fr.push(g, lb, v)
		defer fr.pop(outs)
		for _, eid := range outs {
			e := g.Edge(eid)
			if visited[e.To] {
				continue
			}
			if math.IsInf(lb[e.To], 1) {
				continue // cannot reach the destination from there
			}
			if res.Explored >= opt.MaxExpansions {
				return nil
			}
			if err := ctxErr(ctx); err != nil {
				return err
			}
			var ns *core.PathState
			var dist *hist.Histogram
			var err error
			if opt.Incremental {
				settled := false
				if state == nil {
					ns, err = r.h.StartPath(eid, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap})
				} else {
					ns, settled, err = extendWithin(r.h, state, eid, remaining(q, lb, e))
				}
				if err != nil {
					return err
				}
				if settled {
					// The bound below is exactly 0 ≤ best: explored and
					// pruned, without the kernel.
					res.Explored++
					res.Pruned++
					continue
				}
				if dist, err = ns.DistErr(); err != nil {
					return err
				}
			} else {
				np := append(prefix.Clone(), eid)
				qr, err := r.h.CostDistribution(np, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap})
				if err != nil {
					return err
				}
				dist = qr.Dist
			}
			res.Explored++

			// Optimistic bound: the remaining edges take at least the
			// free-flow time, so P(total ≤ B) ≤ P(prefix ≤ B − lb).
			bound := dist.CDF(q.Budget - lb[e.To])
			if e.To == q.Dest {
				p := dist.CDF(q.Budget)
				if p > best || res.Path == nil {
					best = p
					res.Path = append(prefix.Clone(), eid)
					res.Prob = p
					res.Dist = dist
				}
				continue
			}
			if bound <= best {
				res.Pruned++
				continue
			}
			visited[e.To] = true
			err = dfs(append(prefix, eid), ns, e.To)
			visited[e.To] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(nil, nil, q.Source); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if res.Path == nil {
		return nil, fmt.Errorf("routing: no path to destination found within limits")
	}
	return res, nil
}

// checkEndpoints rejects a query whose source or destination is not a
// vertex of g, or whose source is its destination.
func checkEndpoints(g *graph.Graph, q Query) error {
	n := graph.VertexID(g.NumVertices())
	switch {
	case q.Source < 0 || q.Source >= n:
		return fmt.Errorf("routing: source vertex %d out of range [0, %d)", q.Source, n)
	case q.Dest < 0 || q.Dest >= n:
		return fmt.Errorf("routing: destination vertex %d out of range [0, %d)", q.Dest, n)
	case q.Source == q.Dest:
		return fmt.Errorf("routing: source equals destination")
	}
	return nil
}

// frontier is the stack of out-edge lists of the DFS nodes on the
// current branch, one backing array for the whole search.
type frontier []graph.EdgeID

// push returns v's out-edges, nearest to the destination first so a
// good incumbent is found early and prunes aggressively. Ties keep the
// order sort.Slice gave them (same algorithm, minus the reflection
// swapper). A push that grows the stack leaves the lists of the nodes
// above valid in the old array.
func (f *frontier) push(g *graph.Graph, lb []float64, v graph.VertexID) []graph.EdgeID {
	base := len(*f)
	*f = append(*f, g.Out(v)...)
	outs := (*f)[base:len(*f):len(*f)]
	slices.SortFunc(outs, func(a, b graph.EdgeID) int {
		da, db := lb[g.Edge(a).To], lb[g.Edge(b).To]
		switch {
		case da < db:
			return -1
		case db < da:
			return 1
		default:
			return 0
		}
	})
	return outs
}

// pop releases the list push returned.
func (f *frontier) pop(outs []graph.EdgeID) { *f = (*f)[:len(*f)-len(outs)] }

// remaining is the budget left for the prefix ending in e once the
// admissible lower bound to the destination is set aside — what the
// pruning bound evaluates the prefix's CDF at. A prefix that reaches
// the destination is never pruned (its distribution is the answer), so
// it has no limit.
func remaining(q Query, lb []float64, e graph.Edge) float64 {
	if e.To == q.Dest {
		return math.Inf(1)
	}
	return q.Budget - lb[e.To]
}

// ctxErr reports a dead deadline; a nil ctx is unbounded.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// FastestPath is the deterministic comparison baseline: the free-flow
// Dijkstra path and its (deterministic) travel time.
func (r *Router) FastestPath(src, dst graph.VertexID) (graph.Path, float64, error) {
	p, d, ok := r.h.G.ShortestPath(src, dst, graph.FreeFlowWeight)
	if !ok {
		return nil, 0, fmt.Errorf("routing: destination unreachable")
	}
	return p, d, nil
}
