package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// pqItem and priorityQueue are the boxed container/heap the oracles
// below run on.
type pqItem struct {
	vertex VertexID
	dist   float64
	index  int
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int           { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i]; pq[i].index = i; pq[j].index = j }
func (pq *priorityQueue) Push(x interface{}) {
	it := x.(*pqItem)
	it.index = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() interface{} {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// containerHeapDistances is ShortestDistances and ReverseShortestDistances
// as they were on container/heap, with one boxed *pqItem per push and a
// settled set: the oracle the value heap is held to.
func containerHeapDistances(g *Graph, src VertexID, w WeightFunc, reverse bool) []float64 {
	distTo := make([]float64, len(g.vertices))
	for i := range distTo {
		distTo[i] = math.Inf(1)
	}
	distTo[src] = 0
	pq := &priorityQueue{}
	heap.Init(pq)
	heap.Push(pq, &pqItem{vertex: src, dist: 0})
	settled := make([]bool, len(g.vertices))
	for pq.Len() > 0 {
		v := heap.Pop(pq).(*pqItem).vertex
		if settled[v] {
			continue
		}
		settled[v] = true
		adj := g.out[v]
		if reverse {
			adj = g.in[v]
		}
		for _, eid := range adj {
			e := g.edges[eid]
			u := e.To
			if reverse {
				u = e.From
			}
			nd := distTo[v] + w(e)
			if nd < distTo[u] {
				distTo[u] = nd
				heap.Push(pq, &pqItem{vertex: u, dist: nd})
			}
		}
	}
	return distTo
}

// randomDigraph draws a directed graph with parallel edges, dead ends
// and unreachable vertices, whose lengths come from a handful of values
// so that many paths tie.
func randomDigraph(rnd *rand.Rand) *Graph {
	b := NewBuilder()
	nv := 2 + rnd.Intn(40)
	for i := 0; i < nv; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	lengths := []float64{1, 2, 2, 3, 0.5, 0.25, 1e-3}
	for e := rnd.Intn(4 * nv); e > 0; e-- {
		from, to := VertexID(rnd.Intn(nv)), VertexID(rnd.Intn(nv))
		if from == to {
			continue
		}
		b.AddEdge(from, to, lengths[rnd.Intn(len(lengths))], 50, ClassSecondary)
	}
	return b.Freeze()
}

// tieWeights are the weight functions the differentials run randomDigraph
// under: ties, zero-weight edges and infinite (closed) edges.
var tieWeights = map[string]WeightFunc{
	"length":    LengthWeight,
	"free-flow": FreeFlowWeight,
	// Every edge of length 2 costs nothing: zero-weight edges, and
	// chains of them, so equal keys reach one vertex many ways.
	"zeros": func(e Edge) float64 {
		if e.LengthM == 2 {
			return 0
		}
		return e.LengthM
	},
	// Every edge of length 3 is closed.
	"closed": func(e Edge) float64 {
		if e.LengthM == 3 {
			return math.Inf(1)
		}
		return e.LengthM
	},
	"all-zero": func(Edge) float64 { return 0 },
}

// INVARIANT: the value-heap searches return the container/heap
// distances bit for bit, for every vertex, in both directions, under
// weights with ties, zero-weight edges and infinite (closed) edges.
func TestDistancesMatchContainerHeap(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	compared := 0
	for trial := 0; trial < 400; trial++ {
		g := randomDigraph(rnd)
		for name, w := range tieWeights {
			for src := VertexID(0); int(src) < g.NumVertices(); src++ {
				for _, reverse := range []bool{false, true} {
					want := containerHeapDistances(g, src, w, reverse)
					got := g.ShortestDistances(src, w)
					if reverse {
						got = g.ReverseShortestDistances(src, w)
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("trial %d, %s, src %d, reverse %v: vertex %d at %v, container/heap %v",
								trial, name, src, reverse, v, got[v], want[v])
						}
					}
					compared += len(want)
				}
			}
		}
	}
	t.Logf("%d distances compared", compared)
}

// containerHeapShortestPath is ShortestPath as it was on container/heap,
// with one boxed *pqItem per push and a settled set: the oracle the
// value heap is held to. Its predecessor edges depend on the order in
// which equal keys pop.
func containerHeapShortestPath(g *Graph, src, dst VertexID, w WeightFunc) (p Path, dist float64, ok bool) {
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

	pq := &priorityQueue{}
	heap.Init(pq)
	heap.Push(pq, &pqItem{vertex: src, dist: 0})
	settled := make([]bool, len(g.vertices))

	for pq.Len() > 0 {
		it := heap.Pop(pq).(*pqItem)
		v := it.vertex
		if settled[v] {
			continue
		}
		settled[v] = true
		if v == dst {
			break
		}
		for _, eid := range g.out[v] {
			e := g.edges[eid]
			nd := distTo[v] + w(e)
			if nd < distTo[e.To] {
				distTo[e.To] = nd
				edgeTo[e.To] = eid
				heap.Push(pq, &pqItem{vertex: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(distTo[dst], 1) {
		return nil, 0, false
	}
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

// INVARIANT: ShortestPath returns the container/heap answer for every
// (src, dst) pair — the same ok, the same edges (which tie a path takes
// is decided by the pop order of equal keys) and the same distance bits.
func TestShortestPathMatchesContainerHeap(t *testing.T) {
	rnd := rand.New(rand.NewSource(34))
	pairs, found := 0, 0
	for trial := 0; trial < 100; trial++ {
		g := randomDigraph(rnd)
		for name, w := range tieWeights {
			for src := VertexID(0); int(src) < g.NumVertices(); src++ {
				for dst := VertexID(0); int(dst) < g.NumVertices(); dst++ {
					wantP, wantD, wantOK := containerHeapShortestPath(g, src, dst, w)
					gotP, gotD, gotOK := g.ShortestPath(src, dst, w)
					if gotOK != wantOK || !gotP.Equal(wantP) || math.Float64bits(gotD) != math.Float64bits(wantD) {
						t.Fatalf("trial %d, %s, %d→%d: got %v %v %v, container/heap %v %v %v",
							trial, name, src, dst, gotP, gotD, gotOK, wantP, wantD, wantOK)
					}
					pairs++
					if wantOK {
						found++
					}
				}
			}
		}
	}
	if found == 0 || found == pairs {
		t.Fatalf("%d of %d pairs connected: the differential needs both kinds", found, pairs)
	}
	t.Logf("%d pairs compared, %d connected", pairs, found)
}

// DistHeap pops in ascending key order, equal keys included.
func TestDistHeapOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h DistHeap
		n := rnd.Intn(100)
		for i := 0; i < n; i++ {
			h.Push(VertexDist{VertexID(i), float64(rnd.Intn(8))})
		}
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			it := h.Pop()
			if it.D < prev {
				t.Fatalf("trial %d: popped %v after %v", trial, it.D, prev)
			}
			prev = it.D
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d entries left", trial, len(h))
		}
	}
}
