package routing

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
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
	// BatchWorkers > 1 evaluates each DFS node's sibling expansions as
	// one implicit batch on a worker pool of that size (their common
	// sub-expression is the parent's chain state): the DFS-frontier
	// form of batch planning. BestPath requires Incremental for it;
	// TopKPaths/SkylinePaths are always incremental. Results are
	// byte-identical to sequential expansion because each extension
	// goes through the same reuse handle in the same order and all
	// pruning decisions stay in the sequential consuming loop.
	BatchWorkers int
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
// It is safe for concurrent use; the optional reuse handle (SetReuse)
// is shared by all concurrent queries.
type Router struct {
	h *core.HybridGraph

	// reuse, when non-nil, carries the stored sub-path chain states
	// every DFS expansion goes through: the offline synopsis (prefixes
	// materialized at training time cost zero convolutions from the
	// first query after boot) and the runtime memo (an expansion whose
	// prefix was already evaluated — by an earlier query, a concurrent
	// batch entry, or a distribution query sharing the memo — costs
	// one lookup instead of a convolution). Atomic so it can be
	// swapped while queries run.
	reuse atomic.Pointer[core.Reuse]
}

// New creates a Router.
func New(h *core.HybridGraph) *Router {
	return &Router{h: h}
}

// SetReuse installs the reuse handle (nil removes it) — pathcost.System
// shares each epoch's handle so routing and distribution queries reuse
// each other's prefix states. Answers are byte-identical with or
// without one (its keys carry the exact departure time, not the
// α-interval). Safe to call while queries are in flight: running
// queries finish against whichever handle they started with.
func (r *Router) SetReuse(ru *core.Reuse) { r.reuse.Store(ru) }

// BestPath runs the DFS budget query. It returns an error when the
// destination is unreachable or no path satisfies the budget with
// positive probability.
func (r *Router) BestPath(q Query, opt Options) (*Result, error) {
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
	if q.Source == q.Dest {
		return nil, fmt.Errorf("routing: source equals destination")
	}
	// Admissible remaining-time lower bounds (free-flow Dijkstra on the
	// reverse graph).
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if math.IsInf(lb[q.Source], 1) {
		return nil, fmt.Errorf("routing: destination unreachable from source")
	}

	res := &Result{}
	best := 0.0
	reuse := r.reuse.Load()
	var batch *core.BatchPlanner
	if opt.Incremental && opt.BatchWorkers > 1 {
		batch = core.NewBatchPlanner(r.h, opt.BatchWorkers)
	}
	visited := make(map[graph.VertexID]bool)
	visited[q.Source] = true

	var dfs func(prefix graph.Path, state *core.PathState, v graph.VertexID) error
	dfs = func(prefix graph.Path, state *core.PathState, v graph.VertexID) error {
		if res.Explored >= opt.MaxExpansions || len(prefix) >= opt.MaxEdges {
			return nil
		}
		// Expand neighbors closest to the destination first so a good
		// incumbent is found early and prunes aggressively.
		outs := append([]graph.EdgeID(nil), g.Out(v)...)
		sort.Slice(outs, func(i, j int) bool {
			return lb[g.Edge(outs[i]).To] < lb[g.Edge(outs[j]).To]
		})
		bpos, bstates, berrs := frontierBatch(batch, reuse, g, lb, visited,
			state, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap}, outs)
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
			var ns *core.PathState
			var dist *hist.Histogram
			var err error
			if opt.Incremental {
				if i, ok := bpos[eid]; ok {
					ns, err = bstates[i], berrs[i]
				} else if state == nil {
					ns, err = r.h.StartPath(reuse, eid, q.Depart, core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap})
				} else {
					ns, err = r.h.ExtendPath(reuse, state, eid)
				}
				if err == nil {
					dist, err = ns.DistErr()
				}
				if err != nil {
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

// frontierBatch pre-evaluates the extensions of one DFS node's chain
// state by every eligible out-edge concurrently through the batch
// planner — the sibling expansions are one implicit batch whose
// common sub-expression is the parent state. It returns a positional
// lookup (edge → slot) into states/errs, or a nil map when batching
// is off or fewer than two extensions are eligible (sequential
// evaluation is then strictly cheaper). Eligibility mirrors exactly
// the consuming loop's skip conditions that are stable across the
// loop (visited, unreachable); the loop's explored-cap cutoff is not
// mirrored, so a search that hits its cap mid-frontier may evaluate a
// few unused states — they feed the shared memo but alter no counter
// or result, keeping answers byte-identical to sequential expansion.
func frontierBatch(bp *core.BatchPlanner, reuse *core.Reuse,
	g *graph.Graph, lb []float64, visited map[graph.VertexID]bool,
	state *core.PathState, t float64, opt core.QueryOptions, outs []graph.EdgeID,
) (map[graph.EdgeID]int, []*core.PathState, []error) {
	if bp == nil {
		return nil, nil, nil
	}
	edges := make([]graph.EdgeID, 0, len(outs))
	for _, eid := range outs {
		e := g.Edge(eid)
		if visited[e.To] || isInf(lb[e.To]) {
			continue
		}
		edges = append(edges, eid)
	}
	if len(edges) < 2 {
		return nil, nil, nil
	}
	states, errs := bp.ExtendAll(reuse, state, t, opt, edges)
	pos := make(map[graph.EdgeID]int, len(edges))
	for i, eid := range edges {
		pos[eid] = i
	}
	return pos, states, errs
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
