package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

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

// INVARIANT: the value-heap searches return the container/heap
// distances bit for bit, for every vertex, in both directions, under
// weights with ties, zero-weight edges and infinite (closed) edges.
func TestDistancesMatchContainerHeap(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	weights := map[string]WeightFunc{
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
	compared := 0
	for trial := 0; trial < 400; trial++ {
		g := randomDigraph(rnd)
		for name, w := range weights {
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

// The value heap pops in ascending key order, equal keys included.
func TestDistHeapOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h distHeap
		n := rnd.Intn(100)
		for i := 0; i < n; i++ {
			h.push(vertexDist{VertexID(i), float64(rnd.Intn(8))})
		}
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			it := h.pop()
			if it.d < prev {
				t.Fatalf("trial %d: popped %v after %v", trial, it.d, prev)
			}
			prev = it.d
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d entries left", trial, len(h))
		}
	}
}
