package mapmatch

import (
	"container/heap"
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

// oracleRouteDistances is routeDistances as it stood before the search
// state was pooled: a map distance table, a map from target vertex to
// candidate indexes, and container/heap over boxed entries. Kept
// verbatim as the reference the pooled search is compared against, bit
// for bit.
func oracleRouteDistances(m *Matcher, pc candidate, next []candidate) []float64 {
	out := make([]float64, len(next))
	for i := range out {
		out[i] = math.Inf(1)
	}
	eFrom := m.g.Edge(pc.edge)
	remOnEdge := (1 - pc.frac) * eFrom.LengthM

	remaining := 0
	for i, nc := range next {
		if nc.edge == pc.edge && nc.frac >= pc.frac {
			out[i] = (nc.frac - pc.frac) * eFrom.LengthM
		} else {
			remaining++
		}
	}
	if remaining == 0 {
		return out
	}

	dist := map[graph.VertexID]float64{eFrom.To: remOnEdge}
	pq := &vdHeap{{V: eFrom.To, D: remOnEdge}}
	heap.Init(pq)
	targets := make(map[graph.VertexID][]int)
	for i, nc := range next {
		if !math.IsInf(out[i], 1) {
			continue
		}
		targets[m.g.Edge(nc.edge).From] = append(targets[m.g.Edge(nc.edge).From], i)
	}
	found := 0
	want := remaining
	for pq.Len() > 0 && found < want {
		it := heap.Pop(pq).(graph.VertexDist)
		if it.D > dist[it.V] {
			continue
		}
		if idxs, ok := targets[it.V]; ok {
			for _, i := range idxs {
				if math.IsInf(out[i], 1) {
					nc := next[i]
					out[i] = it.D + nc.frac*m.g.Edge(nc.edge).LengthM
					found++
				}
			}
			delete(targets, it.V)
		}
		if it.D > m.cfg.MaxRouteDistM {
			break
		}
		for _, eid := range m.g.Out(it.V) {
			e := m.g.Edge(eid)
			nd := it.D + e.LengthM
			if cur, ok := dist[e.To]; !ok || nd < cur {
				dist[e.To] = nd
				heap.Push(pq, graph.VertexDist{V: e.To, D: nd})
			}
		}
	}
	return out
}

type vdHeap []graph.VertexDist

func (h vdHeap) Len() int            { return len(h) }
func (h vdHeap) Less(i, j int) bool  { return h[i].D < h[j].D }
func (h vdHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vdHeap) Push(x interface{}) { *h = append(*h, x.(graph.VertexDist)) }
func (h *vdHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func sameDists(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// layerPairs calls visit with every (previous-layer candidate, next
// layer) pair the Viterbi pass of each trace would search.
func layerPairs(m *Matcher, n int, noise float64, t *testing.T, visit func(pc candidate, next []candidate)) {
	t.Helper()
	_, res := testTraces(t, n, noise)
	s := m.getSearch()
	for _, tr := range res.Raw {
		var prev []candidate
		for _, rec := range tr.Records {
			cands := m.candidatesNear(s, rec.Pt)
			if len(cands) == 0 {
				continue
			}
			for _, pc := range prev {
				visit(pc, cands)
			}
			prev = cands
		}
	}
}

func TestRouteDistancesMatchesContainerHeap(t *testing.T) {
	g := testNetwork(t)
	// The second matcher's bound is short enough to cut searches off
	// before they reach every candidate.
	for _, cfg := range []Config{{}, {MaxRouteDistM: 150}} {
		m := New(g, cfg)
		s := m.getSearch()
		var searches, unreachable, backward int
		layerPairs(m, 200, 6, t, func(pc candidate, next []candidate) {
			want := oracleRouteDistances(m, pc, next)
			got := m.routeDistances(s, pc, next)
			if !sameDists(got, want) {
				t.Fatalf("from %+v to %+v:\n got %v\nwant %v", pc, next, got, want)
			}
			searches++
			for i, d := range want {
				if math.IsInf(d, 1) {
					unreachable++
				} else if next[i].edge == pc.edge && next[i].frac < pc.frac {
					backward++ // reached the long way round
				}
			}
		})
		if searches < 10000 {
			t.Fatalf("only %d searches ran through the one scratch", searches)
		}
		if cfg.MaxRouteDistM != 0 && unreachable == 0 {
			t.Fatal("no search was cut off by MaxRouteDistM")
		}
		if cfg.MaxRouteDistM == 0 && backward == 0 {
			t.Fatal("no same-edge backward move was exercised")
		}
	}

	// A same-edge backward move and a target the bound excludes, by hand.
	m := New(g, Config{MaxRouteDistM: 1})
	e := g.Edge(0)
	next := []candidate{{edge: 0, frac: 0.9}, {edge: 0, frac: 0.1}, {edge: g.Out(e.To)[0], frac: 0.5}}
	pc := candidate{edge: 0, frac: 0.5}
	if got, want := m.routeDistances(m.getSearch(), pc, next), oracleRouteDistances(m, pc, next); !sameDists(got, want) {
		t.Fatalf("hand-made case: got %v want %v", got, want)
	}
}

// A generation counter about to wrap must not let the stamps of
// searches 2³² generations back read as current.
func TestRouteDistancesAcrossStampWrap(t *testing.T) {
	m := New(testNetwork(t), Config{})
	s := m.getSearch()
	layerPairs(m, 3, 6, t, func(pc candidate, next []candidate) {
		m.routeDistances(s, pc, next) // leave stamps behind at low generations
	})
	s.gen = math.MaxUint32 - 40
	n := 0
	layerPairs(m, 3, 6, t, func(pc candidate, next []candidate) {
		if got, want := m.routeDistances(s, pc, next), oracleRouteDistances(m, pc, next); !sameDists(got, want) {
			t.Fatalf("search %d (generation %d): got %v want %v", n, s.gen, got, want)
		}
		n++
	})
	if n < 100 || s.gen > 1<<20 {
		t.Fatalf("%d searches, generation %d: the wrap was not crossed", n, s.gen)
	}
}

// One Matcher, many goroutines: every decode takes its own search from
// the pool, so concurrent matches agree with sequential ones. Run with
// -race.
func TestMatcherConcurrentUseSharesNoSearchState(t *testing.T) {
	g, res := testTraces(t, 24, 6)
	m := New(g, Config{})
	want := make([]graph.Path, len(res.Raw))
	for i, tr := range res.Raw {
		want[i], _ = m.Match(tr)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, tr := range res.Raw {
					got, _ := m.Match(tr)
					if len(got) != len(want[i]) {
						t.Errorf("trace %d: concurrent match %v, sequential %v", i, got, want[i])
						return
					}
					for k := range got {
						if got[k] != want[i][k] {
							t.Errorf("trace %d: concurrent match %v, sequential %v", i, got, want[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRouteDistancesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New(testNetwork(t), Config{})
	s := m.getSearch()
	var pcs []candidate
	var nexts [][]candidate
	layerPairs(m, 2, 6, t, func(pc candidate, next []candidate) {
		pcs, nexts = append(pcs, pc), append(nexts, next)
	})
	for i := range pcs {
		m.routeDistances(s, pcs[i], nexts[i]) // warm: grow the heap to its working size
	}
	i := 0
	allocs := testing.AllocsPerRun(len(pcs), func() {
		m.routeDistances(s, pcs[i%len(pcs)], nexts[i%len(pcs)])
		i++
	})
	// The result slice and nothing else; the map-and-container/heap
	// version averages 40 allocations per search on these inputs.
	if allocs > 1 {
		t.Fatalf("routeDistances allocates %.1f times per warm search, want 1 (the out slice)", allocs)
	}
}
