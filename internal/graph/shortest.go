package graph

import "math"

// WeightFunc assigns a non-negative traversal cost to an edge. It is
// the routing-time analogue of the paper's deterministic edge weights;
// the trajectory generator perturbs it per trip to diversify routes.
type WeightFunc func(e Edge) float64

// LengthWeight weighs edges by length in meters.
func LengthWeight(e Edge) float64 { return e.LengthM }

// FreeFlowWeight weighs edges by free-flow travel time in seconds.
func FreeFlowWeight(e Edge) float64 { return e.FreeFlowSeconds() }

// ShortestPath runs Dijkstra from src to dst under w and returns the
// path as an edge sequence. ok is false when dst is unreachable or
// src == dst. Which of several equally short paths it returns is decided
// by the order in which equal keys pop, and DistHeap pops them in
// container/heap's order (TestShortestPathMatchesContainerHeap).
func (g *Graph) ShortestPath(src, dst VertexID, w WeightFunc) (p Path, dist float64, ok bool) {
	if src == dst {
		return nil, 0, false
	}
	distTo := make([]float64, len(g.vertices))
	edgeTo := make([]EdgeID, len(g.vertices))
	for i := range distTo {
		distTo[i] = math.Inf(1)
		edgeTo[i] = NoEdge
	}
	distTo[src] = 0
	var h DistHeap
	h.Push(VertexDist{src, 0})
	for len(h) > 0 {
		it := h.Pop()
		if it.D > distTo[it.V] {
			continue
		}
		if it.V == dst {
			break
		}
		for _, eid := range g.out[it.V] {
			e := g.edges[eid]
			if nd := it.D + w(e); nd < distTo[e.To] {
				distTo[e.To] = nd
				edgeTo[e.To] = eid
				h.Push(VertexDist{e.To, nd})
			}
		}
	}
	if math.IsInf(distTo[dst], 1) {
		return nil, 0, false
	}
	// Walk predecessors back to src.
	var rev Path
	for v := dst; v != src; {
		eid := edgeTo[v]
		rev = append(rev, eid)
		v = g.edges[eid].From
	}
	p = make(Path, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	return p, distTo[dst], true
}

// ShortestDistances runs Dijkstra from src to all vertices under w and
// returns the distance array (Inf for unreachable vertices). Used by
// the routing package to compute admissible lower bounds.
func (g *Graph) ShortestDistances(src VertexID, w WeightFunc) []float64 {
	return g.distances(src, w, false)
}

// ReverseShortestDistances returns, for every vertex v, the shortest
// distance from v to dst under w (Inf when dst is unreachable from v).
// It runs Dijkstra on the reverse graph.
func (g *Graph) ReverseShortestDistances(dst VertexID, w WeightFunc) []float64 {
	return g.distances(dst, w, true)
}

// distances is Dijkstra from src over the out-edges, or the in-edges
// when reverse. Unlike ShortestPath it tracks no predecessors and runs
// to exhaustion. A stale entry is skipped, so each vertex is expanded
// once, at its final distance.
func (g *Graph) distances(src VertexID, w WeightFunc, reverse bool) []float64 {
	dist := make([]float64, len(g.vertices))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	var h DistHeap
	h.Push(VertexDist{src, 0})
	for len(h) > 0 {
		it := h.Pop()
		if it.D > dist[it.V] {
			continue
		}
		adj := g.out[it.V]
		if reverse {
			adj = g.in[it.V]
		}
		for _, eid := range adj {
			e := g.edges[eid]
			u := e.To
			if reverse {
				u = e.From
			}
			if nd := it.D + w(e); nd < dist[u] {
				dist[u] = nd
				h.Push(VertexDist{u, nd})
			}
		}
	}
	return dist
}

// VertexDist is a (vertex, distance) entry of a DistHeap.
type VertexDist struct {
	V VertexID
	D float64
}

// DistHeap is the binary min-heap on D under every Dijkstra of the
// module: this package's and the map matcher's bounded search. It holds
// values, so a push allocates nothing once the slice has grown, and its
// sift steps make container/heap's comparisons and swaps exactly, so the
// same pushes pop in the same order, equal keys included — the order
// that decides which of two equally short routes a search takes. A
// stale entry is the caller's to skip.
type DistHeap []VertexDist

// Push adds it to the heap.
func (h *DistHeap) Push(it VertexDist) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(s[j].D < s[i].D) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// Pop removes and returns the entry of least D; the heap must not be
// empty.
func (h *DistHeap) Pop() VertexDist {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].D < s[j].D {
			j = r
		}
		if !(s[j].D < s[i].D) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// RandomWalkPath grows a simple path of exactly n edges starting from
// edge start by repeatedly following a random adjacent edge, avoiding
// vertex revisits. rnd must return a non-negative pseudo-random int.
// Returns nil when the walk dead-ends before reaching n edges. Used by
// workload generators to sample query paths of a given cardinality.
func (g *Graph) RandomWalkPath(start EdgeID, n int, rnd func(n int) int) Path {
	if n <= 0 {
		return nil
	}
	p := Path{start}
	visited := map[VertexID]struct{}{
		g.edges[start].From: {},
		g.edges[start].To:   {},
	}
	for len(p) < n {
		next := g.NextEdges(p[len(p)-1])
		// Collect feasible continuations (no vertex revisits).
		var feas []EdgeID
		for _, eid := range next {
			if _, dup := visited[g.edges[eid].To]; !dup {
				feas = append(feas, eid)
			}
		}
		if len(feas) == 0 {
			return nil
		}
		e := feas[rnd(len(feas))]
		p = append(p, e)
		visited[g.edges[e].To] = struct{}{}
	}
	return p
}
