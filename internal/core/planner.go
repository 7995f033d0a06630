package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// BatchPlanner is the batch-aware query planner: given the N query
// paths of one batch, it eliminates their common sub-expressions —
// the shared sub-path convolutions Equation 2 composes every answer
// from — instead of letting each query rediscover shared prefixes
// through the memo cache. All paths are decomposed edge-wise into a
// prefix trie; every interior node carries a refcount of the queries
// traversing it; and each node's chain state is evaluated exactly
// once (through the same reuse handle, in the same probe → compute →
// offer order, as StartPath/ExtendPath), in dependency order across a
// bounded worker pool. Per-query results come out in input order and are
// byte-identical to independent evaluation: node states are built by
// the same StartPath/ExtendPath chain operations, and the final
// marginal is derived by the same stateResult the single-query path
// uses.
//
// A BatchPlanner is immutable after construction and safe for
// concurrent use; each Distributions/ExtendAll call runs its own
// worker pool.
type BatchPlanner struct {
	h       *HybridGraph
	workers int
}

// NewBatchPlanner builds a planner over h whose evaluation runs on at
// most workers goroutines; workers ≤ 0 means GOMAXPROCS. workers == 1
// still plans (the CSE win is independent of parallelism) but
// evaluates serially.
func NewBatchPlanner(h *HybridGraph, workers int) *BatchPlanner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &BatchPlanner{h: h, workers: workers}
}

// Workers returns the planner's worker-pool bound.
func (bp *BatchPlanner) Workers() int { return bp.workers }

// Hybrid returns the model the planner evaluates against; an
// epoch-versioned System uses this to detect a planner built for an
// older model snapshot.
func (bp *BatchPlanner) Hybrid() *HybridGraph { return bp.h }

// PlanQuery is one entry of a batch handed to the planner.
type PlanQuery struct {
	Path   graph.Path
	Depart float64
	Opt    QueryOptions
}

// PlanResult is one entry's outcome, in input order. Exactly one of
// Res and Err is set.
type PlanResult struct {
	Res *QueryResult
	Err error
}

// PlanStats instruments one planned batch. Independent evaluation of
// a batch runs one chain step (StartPath or ExtendPath) per query
// edge — IndependentSteps in total; the planner runs Convolutions of
// them (one per trie node not answered by a probe), so
// IndependentSteps − Convolutions − ProbeHits is the work sharing
// eliminated outright.
type PlanStats struct {
	// Queries is the batch size; Planned of them entered the trie,
	// Fallback were evaluated independently (methods without an
	// incremental evaluator, e.g. RD, cannot share chain states).
	Queries, Planned, Fallback int
	// Nodes is the number of distinct trie nodes (unique sub-path
	// convolutions the batch needs); SharedNodes of them are traversed
	// by more than one query.
	Nodes, SharedNodes int
	// Convolutions counts chain steps actually executed; ProbeHits
	// counts nodes answered by the synopsis or the memo with no chain
	// step at all.
	Convolutions, ProbeHits int
	// IndependentSteps is Σ len(path) over planned queries — the chain
	// steps independent (plain) evaluation would run.
	IndependentSteps int
}

// SavedSteps returns the chain steps the plan avoided versus
// independent plain evaluation.
func (s PlanStats) SavedSteps() int {
	saved := s.IndependentSteps - s.Convolutions - s.ProbeHits
	if saved < 0 {
		saved = 0
	}
	return saved
}

// planNode is one trie node: the chain state of one sub-path prefix,
// shared by every query whose path runs through it.
type planNode struct {
	prefix   graph.Path // aliases the first inserting query's backing array (read-only)
	parent   *planNode  // nil for depth-1 nodes
	children []*planNode
	refs     int   // queries whose paths traverse this node
	ends     []int // query indices whose full path ends exactly here
	state    *PathState
	err      error
}

// planGroup is one trie: nodes are only shared between queries with
// identical (departure, method, rank cap) — the exact-identity rule
// the memo and synopsis keys already enforce.
type planGroup struct {
	t     float64
	opt   QueryOptions
	roots map[graph.EdgeID]*planNode
}

// planCounters aggregates scheduler-side stats race-free.
type planCounters struct {
	convolutions atomic.Int64
	probeHits    atomic.Int64
}

// Distributions plans and answers a batch of distribution queries.
// Results are positional: out[i] answers queries[i], byte-identical
// to CostDistributionCtx(ctx, r, …) on the same handle (nil for no
// reuse). A query whose evaluation fails gets a per-entry
// error; the failure never poisons trie nodes other queries share
// (only the failing node's own subtree inherits it). ctx cancellation
// abandons nodes not yet evaluated, surfacing ctx.Err() on the
// affected entries.
//
// Each planned entry's Timing reports the batch's shared evaluation
// elapsed (the plan evaluates nodes for many queries at once, so
// per-entry attribution is not meaningful).
func (bp *BatchPlanner) Distributions(ctx context.Context, r *Reuse, queries []PlanQuery) ([]PlanResult, PlanStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	out := make([]PlanResult, len(queries))
	var stats PlanStats
	stats.Queries = len(queries)

	// Build the tries: one per (depart, method, rankcap) group.
	groups := make(map[string]*planGroup)
	var groupKeys []string // deterministic iteration
	var fallback []int
	total := 0 // nodes across all groups
	for i, q := range queries {
		opt := q.Opt
		if opt.Method == "" {
			opt.Method = MethodOD
		}
		if len(q.Path) == 0 {
			out[i] = PlanResult{Err: fmt.Errorf("core: cannot evaluate an empty path")}
			continue
		}
		if !memoizable(opt.Method) {
			fallback = append(fallback, i)
			continue
		}
		stats.Planned++
		stats.IndependentSteps += len(q.Path)
		gk := memoKey("", q.Depart, opt)
		g, ok := groups[gk]
		if !ok {
			g = &planGroup{t: q.Depart, opt: opt, roots: make(map[graph.EdgeID]*planNode)}
			groups[gk] = g
			groupKeys = append(groupKeys, gk)
		}
		// Walk/create the node chain for q.Path.
		var node *planNode
		for n := 1; n <= len(q.Path); n++ {
			e := q.Path[n-1]
			var next *planNode
			if node == nil {
				next = g.roots[e]
			} else {
				for _, c := range node.children {
					if c.prefix[n-1] == e {
						next = c
						break
					}
				}
			}
			if next == nil {
				next = &planNode{prefix: q.Path[:n], parent: node}
				if node == nil {
					g.roots[e] = next
				} else {
					node.children = append(node.children, next)
				}
				total++
			}
			next.refs++
			node = next
		}
		node.ends = append(node.ends, i)
	}
	sort.Strings(groupKeys)

	// Evaluate the tries: dependency order (a node is ready once its
	// parent is done), bounded workers, no barriers between levels.
	var ctr planCounters
	if total > 0 {
		ready := make(chan evalTask, total)
		var wg sync.WaitGroup
		wg.Add(total)
		for _, gk := range groupKeys {
			g := groups[gk]
			for _, e := range sortedRootEdges(g.roots) {
				ready <- evalTask{node: g.roots[e], group: g}
			}
		}
		go func() { wg.Wait(); close(ready) }()
		workers := bp.workers
		if workers > total {
			workers = total
		}
		var pool sync.WaitGroup
		for w := 0; w < workers; w++ {
			pool.Add(1)
			go func() {
				defer pool.Done()
				for task := range ready {
					bp.evalNode(ctx, r, task.group, task.node, &ctr)
					// The node's fields are fully written before its
					// children are enqueued, so the channel's
					// happens-before edge publishes them to whichever
					// worker picks a child up.
					for _, c := range task.node.children {
						ready <- evalTask{node: c, group: task.group}
					}
					wg.Done()
				}
			}()
		}
		pool.Wait()
	}

	// Assemble positional results.
	for _, gk := range groupKeys {
		g := groups[gk]
		var walk func(n *planNode)
		walk = func(n *planNode) {
			if n.refs > 1 {
				stats.SharedNodes++
			}
			for _, qi := range n.ends {
				if n.err != nil {
					out[qi] = PlanResult{Err: n.err}
					continue
				}
				res, err := bp.h.stateResult(n.state)
				if err != nil {
					out[qi] = PlanResult{Err: err}
					continue
				}
				res.Timing = Timing{JC: time.Since(t0)}
				out[qi] = PlanResult{Res: res}
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		for _, e := range sortedRootEdges(g.roots) {
			walk(g.roots[e])
		}
	}

	// Fallback queries (no incremental evaluator): evaluate
	// independently, still on a bounded pool.
	if len(fallback) > 0 {
		stats.Fallback = len(fallback)
		workers := bp.workers
		if workers > len(fallback) {
			workers = len(fallback)
		}
		idx := make(chan int, len(fallback))
		for _, i := range fallback {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if err := ctx.Err(); err != nil {
						out[i] = PlanResult{Err: err}
						continue
					}
					res, err := bp.h.CostDistribution(queries[i].Path, queries[i].Depart, queries[i].Opt)
					out[i] = PlanResult{Res: res, Err: err}
				}
			}()
		}
		wg.Wait()
	}

	stats.Nodes = total
	stats.Convolutions = int(ctr.convolutions.Load())
	stats.ProbeHits = int(ctr.probeHits.Load())
	return out, stats
}

type evalTask struct {
	node  *planNode
	group *planGroup
}

func sortedRootEdges(roots map[graph.EdgeID]*planNode) []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(roots))
	for e := range roots {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evalNode computes one trie node's chain state by extending the
// parent's state by one edge through the reuse handle — the same
// single step StartPath/ExtendPath take, so planned states are the
// states independent evaluation would build. A failing node records
// its error; descendants inherit it (they cannot be evaluated without
// the parent state) but siblings and ancestors are untouched — one
// unanswerable query never poisons the sub-paths it shares with valid
// ones.
func (bp *BatchPlanner) evalNode(ctx context.Context, r *Reuse, g *planGroup, n *planNode, ctr *planCounters) {
	if n.parent != nil && n.parent.err != nil {
		n.err = n.parent.err
		return
	}
	if err := ctx.Err(); err != nil {
		n.err = err
		return
	}
	// The probe keys on the trie's own prefix; the state a miss builds
	// gets its own copy of the path (the prefix aliases caller memory).
	s, hit, err := r.through(n.prefix, g.t, g.opt, func() (*PathState, error) {
		if n.parent == nil {
			return bp.h.StartPath(nil, n.prefix[0], g.t, g.opt)
		}
		return bp.h.ExtendPath(nil, n.parent.state, n.prefix[len(n.prefix)-1])
	})
	if err != nil {
		n.err = err
		return
	}
	n.state = s
	if hit {
		ctr.probeHits.Add(1)
	} else {
		ctr.convolutions.Add(1)
	}
	bp.primeDist(n)
}

// primeDist derives the cost marginal of end nodes inside the worker
// pool, so the sequential result-assembly pass only reads memoized
// Once values. Errors are left for stateResult to surface per query.
func (bp *BatchPlanner) primeDist(n *planNode) {
	if len(n.ends) > 0 && len(n.state.de.Vars) > 1 {
		_, _ = n.state.DistErr()
	}
}

// ExtendAll evaluates the sibling extensions of one shared parent
// state concurrently — the DFS-frontier form of batch planning: the
// expansions of one routing search node are an implicit batch whose
// common sub-expression is the parent's chain state. parent == nil
// starts fresh single-edge states. Each extension is a regular
// StartPath/ExtendPath through r, so results are byte-identical to
// sequential expansion. Positional: states[i]/errs[i] answer edges[i].
func (bp *BatchPlanner) ExtendAll(r *Reuse, parent *PathState, t float64, opt QueryOptions, edges []graph.EdgeID) ([]*PathState, []error) {
	states := make([]*PathState, len(edges))
	errs := make([]error, len(edges))
	workers := bp.workers
	if workers > len(edges) {
		workers = len(edges)
	}
	if workers <= 1 {
		for i, e := range edges {
			states[i], errs[i] = bp.extendOne(r, parent, t, opt, e)
		}
		return states, errs
	}
	idx := make(chan int, len(edges))
	for i := range edges {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				states[i], errs[i] = bp.extendOne(r, parent, t, opt, edges[i])
			}
		}()
	}
	wg.Wait()
	return states, errs
}

func (bp *BatchPlanner) extendOne(r *Reuse, parent *PathState, t float64, opt QueryOptions, e graph.EdgeID) (*PathState, error) {
	var s *PathState
	var err error
	if parent == nil {
		s, err = bp.h.StartPath(r, e, t, opt)
	} else {
		s, err = bp.h.ExtendPath(r, parent, e)
	}
	if err != nil {
		return nil, err
	}
	// Routing consumers read every extension's marginal immediately;
	// deriving it here keeps that work on the pool too. DistErr is
	// memoized, so this costs nothing when the consumer re-asks, and
	// errors are left for the consumer to surface in loop order.
	_, _ = s.DistErr()
	return s, nil
}
