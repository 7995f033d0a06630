package routing

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
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
	// Deprecated: ignored; every search extends its parent's state
	// ("path + another edge", Section 4.3).
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
	Explored int // prefixes evaluated, or settled by their cost-support minimum
	Pruned   int // prefixes cut by the probabilistic bound, settled ones included
	Elapsed  time.Duration
}

// Router answers stochastic routing queries over one hybrid graph.
// It is safe for concurrent use. Each expansion resumes from its
// parent's state in the search; no state is shared across queries or
// outlives its search.
type Router struct {
	h *core.HybridGraph
}

// New creates a Router.
func New(h *core.HybridGraph) *Router {
	return &Router{h: h}
}

// extendWithin is the extension every expansion past the first edge
// makes, into the search's slot for its depth; a variable so tests can
// count the children it settles.
var extendWithin = (*core.HybridGraph).ExtendPathWithin

// BestPath runs the DFS budget query. It returns an error when the
// destination is unreachable or no path satisfies the budget with
// positive probability.
func (r *Router) BestPath(q Query, opt Options) (*Result, error) {
	return r.BestPathCtx(nil, q, opt)
}

// BestPathCtx is BestPath bounded by ctx (nil = unbounded): the
// deadline is checked once per expansion, and a search it cuts short
// returns ctx's error and no partial result. It is the top-1 answer of
// the one search.
func (r *Router) BestPathCtx(ctx context.Context, q Query, opt Options) (*Result, error) {
	start := time.Now()
	ranked, explored, pruned, err := r.search(ctx, q, 1, opt)
	if err != nil {
		return nil, err
	}
	best := ranked[0]
	return &Result{
		Path: best.Path, Prob: best.Prob, Dist: best.Dist,
		Explored: explored, Pruned: pruned, Elapsed: time.Since(start),
	}, nil
}

// search is the one DFS behind every query: it extends a path by one
// edge at a time, each child resuming from its parent's state, keeps
// the k best complete paths found, and prunes a prefix whose optimistic
// arrival probability cannot beat the k-th of them. It returns the
// incumbents best first, with the number of prefixes explored and
// pruned.
func (r *Router) search(ctx context.Context, q Query, k int, opt Options) (ranked []TopKResult, explored, pruned int, err error) {
	if k < 1 {
		return nil, 0, 0, fmt.Errorf("routing: k = %d must be ≥ 1", k)
	}
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
	// Admissible remaining-time lower bounds (free-flow Dijkstra on the
	// reverse graph).
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if math.IsInf(lb[q.Source], 1) {
		return nil, 0, 0, fmt.Errorf("routing: destination unreachable from source")
	}
	s := searcherPool.Get().(*searcher)
	defer s.release()
	*s = searcher{
		h: r.h, ctx: ctx, q: q, k: k, opt: opt, lb: lb,
		visited: slices.Grow(s.visited[:0], g.NumVertices())[:g.NumVertices()],
		fr:      s.fr[:0],
		prefix:  s.prefix[:0],
		slots:   s.slots,
	}
	clear(s.visited)
	s.visited[q.Source] = true
	if err := s.expand(nil, q.Source); err != nil {
		return nil, 0, 0, err
	}
	if len(s.top) == 0 {
		return nil, 0, 0, fmt.Errorf("routing: no path to destination found within limits")
	}
	return s.rank(), s.explored, s.pruned, nil
}

// searcher is the state of one search: the query, its lower bounds,
// the current branch's visited set, frontier and edges, one path slot
// per depth, the incumbents and the counters. Searchers are pooled:
// the next search reuses the storage of the visited set, the frontier,
// the branch and the slots.
type searcher struct {
	h       *core.HybridGraph
	ctx     context.Context
	q       Query
	k       int
	opt     Options
	lb      []float64
	visited []bool
	fr      frontier
	prefix  graph.Path       // the current branch's edges
	slots   []*core.PathSlot // slots[d] holds the branch's prefix of d+1 edges
	top     topKHeap         // the k-th best incumbent on top

	explored int // prefixes evaluated or settled
	pruned   int // prefixes cut by the probabilistic bound, settled ones included
}

var searcherPool = sync.Pool{New: func() any { return new(searcher) }}

// release recycles every state the search built into its slots and
// pools the searcher; the incumbents, which rank handed to the caller,
// are not kept.
func (s *searcher) release() {
	for _, sl := range s.slots {
		sl.Release()
	}
	*s = searcher{visited: s.visited, fr: s.fr, prefix: s.prefix, slots: s.slots}
	searcherPool.Put(s)
}

// slot returns the slot for prefixes of d+1 edges.
func (s *searcher) slot(d int) *core.PathSlot {
	for len(s.slots) <= d {
		s.slots = append(s.slots, new(core.PathSlot))
	}
	return s.slots[d]
}

// kth is the probability a prefix must beat to matter: the k-th best
// incumbent's, or 0 while there are fewer than k.
func (s *searcher) kth() float64 {
	if len(s.top) < s.k {
		return 0
	}
	return s.top[0].Prob
}

// expand explores the children of v, the end of the branch s.prefix,
// whose chain state is state (nil at the source). Each child is built
// into the slot of its depth, so it lives until its next sibling
// replaces it: every state the search reads is on the current branch.
func (s *searcher) expand(state *core.PathState, v graph.VertexID) error {
	depth := len(s.prefix)
	if s.explored >= s.opt.MaxExpansions || depth >= s.opt.MaxEdges {
		return nil
	}
	g := s.h.G
	outs := s.fr.push(g, s.lb, v)
	defer s.fr.pop(outs)
	slot := s.slot(depth)
	for _, eid := range outs {
		e := g.Edge(eid)
		if s.visited[e.To] || math.IsInf(s.lb[e.To], 1) {
			continue // on the branch, or the destination is out of reach
		}
		if s.explored >= s.opt.MaxExpansions {
			return nil
		}
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		var ns *core.PathState
		var err error
		settled := false
		if state == nil {
			ns, err = s.h.StartPath(eid, s.q.Depart, core.QueryOptions{Method: s.opt.Method, RankCap: s.opt.RankCap}, slot)
		} else {
			ns, settled, err = extendWithin(s.h, state, eid, remaining(s.q, s.lb, e), slot)
		}
		if err != nil {
			return err
		}
		s.explored++
		if settled {
			// The bound below is exactly 0 ≤ kth(): explored and pruned,
			// without the kernel.
			s.pruned++
			continue
		}
		if e.To == s.q.Dest {
			if err := s.offer(ns, eid); err != nil {
				return err
			}
			continue
		}
		// Optimistic bound: the remaining edges take at least the
		// free-flow time, so P(total ≤ B) ≤ P(prefix ≤ B − lb).
		p, err := ns.CDF(s.q.Budget - s.lb[e.To])
		if err != nil {
			return err
		}
		if p <= s.kth() {
			s.pruned++
			continue
		}
		s.visited[e.To] = true
		s.prefix = append(s.prefix, eid)
		err = s.expand(ns, e.To)
		s.prefix = s.prefix[:depth]
		s.visited[e.To] = false
		if err != nil {
			return err
		}
	}
	return nil
}

// offer makes the complete path s.prefix+eid, whose state is ns, an
// incumbent if it beats the k-th best found so far or there are fewer
// than k. Only an incumbent's distribution is built, and it and the
// path copy are the caller's: nothing of the slot ns lives in.
func (s *searcher) offer(ns *core.PathState, eid graph.EdgeID) error {
	p, err := ns.CDF(s.q.Budget)
	if err != nil {
		return err
	}
	full := len(s.top) == s.k
	if full && !(p > s.top[0].Prob) {
		return nil
	}
	dist, err := ns.DistErr()
	if err != nil {
		return err
	}
	path := make(graph.Path, len(s.prefix)+1)
	copy(path, s.prefix)
	path[len(s.prefix)] = eid
	x := TopKResult{Path: path, Prob: p, Dist: dist}
	if !full {
		s.top = append(s.top, x)
		s.top.up(len(s.top) - 1)
		return nil
	}
	s.top[0] = x
	s.top.down(0, len(s.top))
	return nil
}

// rank sorts the incumbents best first, in place: each step moves the
// heap's minimum behind the shrinking heap, as container/heap's Pop
// does, so equal probabilities rank in the order repeated pops give.
func (s *searcher) rank() []TopKResult {
	for n := len(s.top) - 1; n > 0; n-- {
		s.top[0], s.top[n] = s.top[n], s.top[0]
		s.top.down(0, n)
	}
	return s.top
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
