package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// A PathState keeps neither its last factor's product nor its candidate
// array. These differentials hold the states built that way to the ones
// built the old way — product kept, candidate array built in full for
// every path (extendKept) — on random paths of branching and chain
// networks, under every incremental method.

// braidWorkload is a chain of vertices joined by two parallel edges at
// every step, one of them the popular one: trajectories take the other
// one step in three to eight, so variables of every rank exist on some
// branches of a path and none on others.
func braidWorkload(seed int64) (*graph.Graph, *gps.Collection, Params) {
	rnd := rand.New(rand.NewSource(seed))
	steps := 8 + rnd.Intn(4)
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= steps; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	for i := 0; i < steps; i++ {
		b.AddEdge(vs[i], vs[i+1], 200+rnd.Float64()*300, 50, graph.ClassSecondary)   // edge 2i
		b.AddEdge(vs[i], vs[i+1], 250+rnd.Float64()*300, 40, graph.ClassResidential) // edge 2i+1
	}
	g := b.Freeze()
	params := DefaultParams()
	params.Beta = 6 + rnd.Intn(16)
	params.MaxRank = 3 + rnd.Intn(3)
	side := 3 + rnd.Intn(6) // one trip step in side takes the other edge
	var trajs []*gps.Matched
	for i := 0; i < 400+rnd.Intn(200); i++ {
		start := rnd.Intn(steps - 1)
		span := 2 + rnd.Intn(min(5, steps-start-1))
		path := make(graph.Path, span)
		costs := make([]float64, span)
		base := 20 + rnd.Float64()*10
		if rnd.Float64() < 0.4 {
			base *= 2.2
		}
		for j := range path {
			path[j] = graph.EdgeID(2 * (start + j))
			if rnd.Intn(side) == 0 {
				path[j]++
			}
			costs[j] = base + rnd.Float64()*8
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path, Depart: float64(i%7)*gps.SecondsPerDay + 8*3600 + rnd.Float64()*1200, EdgeCosts: costs,
		})
	}
	return g, gps.NewCollection(trajs, 0), params
}

// randomPath walks from a random edge along random out-edges, for up to
// maxLen edges.
func randomPath(rnd *rand.Rand, g *graph.Graph, maxLen int) graph.Path {
	p := graph.Path{graph.EdgeID(rnd.Intn(g.NumEdges()))}
	for n := 1 + rnd.Intn(maxLen); len(p) < n; {
		next := g.NextEdges(p[len(p)-1])
		if len(next) == 0 {
			break
		}
		p = append(p, next[rnd.Intn(len(next))])
	}
	return p
}

// sameState reports how s differs from the kept-product state want, or
// "" when it does not: decomposition, interval past the last edge,
// every chain state, the last product (rebuilt against kept) and the
// marginal, byte for byte.
func sameState(s *PathState, want *keptState) string {
	if len(s.de.Vars) != len(want.de.Vars) {
		return fmt.Sprintf("%d factors, want %d", len(s.de.Vars), len(want.de.Vars))
	}
	for i := range s.de.Vars {
		if s.de.Vars[i] != want.de.Vars[i] || s.de.Pos[i] != want.de.Pos[i] {
			return fmt.Sprintf("factor %d differs", i)
		}
	}
	if s.next != want.next {
		return fmt.Sprintf("interval past the last edge %v, want %v", s.next, want.next)
	}
	pre, err := s.lastProduct(factorPositions(s.de, len(s.de.Vars)-1))
	if err != nil {
		return err.Error()
	}
	got := append(append([]*chainState(nil), s.inter...), &pre)
	exp := append(append([]*chainState(nil), want.inter...), want.preFold)
	for i := range got {
		gb, err1 := (&ChainState{cs: got[i]}).Encode()
		wb, err2 := (&ChainState{cs: exp[i]}).Encode()
		if err1 != nil || err2 != nil || !bytes.Equal(gb, wb) {
			return fmt.Sprintf("chain state %d of %d differs (last = product; %v, %v)", i, len(got), err1, err2)
		}
	}
	if !identicalHist(s.Dist(), want.Dist()) {
		return "marginal differs"
	}
	return ""
}

// INVARIANT: along every prefix of 2000 random paths — braided and chain
// networks × OD/HP/LB × two departures — the extension built with the
// last product rebuilt on demand, and with the decomposition read off
// the parent's when no row gains a variable, is the kept-product,
// full-candidate-array extension: decomposition, interval past the last
// edge, every chain state, the product, the marginal, and whether a
// bounded extension settles.
func TestDerivedProductMatchesKept(t *testing.T) {
	var seen struct{ paths, steps, carried, built, refold, single, settled int }
	for seed := int64(1); seed <= 10; seed++ {
		gen := braidWorkload
		if seed%3 == 0 {
			gen = randomWorkload // a chain: every path is a sub-path of one trunk
		}
		g, data, params := gen(seed)
		h, err := Build(g, data, params)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			// Without its pairs, a model holds longer variables whose
			// two-edge suffix is no variable: a row far from the end gains
			// one while the last-but-one gains none.
			h = h.FilterVariables(func(v *Variable) bool { return v.Rank() != 2 })
		}
		_, departs := oracleQueries(g, seed)
		rnd := rand.New(rand.NewSource(seed))
		for n := 0; n < 200; n++ {
			p := randomPath(rnd, g, 10)
			seen.paths++
			for _, method := range chainMethods {
				opt := QueryOptions{Method: method}
				for _, dep := range departs {
					var cur *PathState
					var kept *keptState
					for k := 1; k <= len(p); k++ {
						where := fmt.Sprintf("seed %d %s %v at %v", seed, method, p[:k], dep)
						if cur != nil {
							// A bounded extension settles exactly where the old one
							// did: below every cost, or somewhere near the parent's.
							within := math.Inf(-1)
							if rnd.Intn(2) == 0 {
								within = kept.Dist().Min() + rnd.Float64()*60
							}
							ns, settled, err := h.ExtendPathWithin(cur, p[k-1], within, nil)
							ks, kerr := extendKept(h, kept, p[:k], dep, opt, within)
							if err != nil || (kerr != nil && kerr != errSettled) {
								t.Fatalf("%s within %v: %v / %v", where, within, err, kerr)
							}
							if settled != (kerr == errSettled) {
								t.Fatalf("%s within %v: settled %v, kept product settled %v", where, within, settled, kerr == errSettled)
							}
							if settled {
								seen.settled++
							} else if diff := sameState(ns, ks); diff != "" {
								t.Fatalf("%s within %v: %s", where, within, diff)
							}
						}
						var next *PathState
						if cur == nil {
							next, err = h.StartPath(p[0], dep, opt, nil)
						} else {
							next, err = h.ExtendPath(cur, p[k-1])
						}
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						nk, err := extendKept(h, kept, p[:k], dep, opt, math.Inf(1))
						if err != nil {
							t.Fatalf("%s: kept product: %v", where, err)
						}
						if diff := sameState(next, nk); diff != "" {
							t.Fatalf("%s: %s", where, diff)
						}
						seen.steps++
						switch {
						case cur == nil:
						case !h.suffixVariable(p[:k]):
							seen.carried++
						default:
							seen.built++
						}
						if cur != nil {
							shared := 0
							for shared < min(len(cur.de.Vars), len(next.de.Vars)) &&
								cur.de.Vars[shared] == next.de.Vars[shared] && cur.de.Pos[shared] == next.de.Pos[shared] {
								shared++
							}
							// The parent's last factor folded to nothing; a child that
							// keeps an edge of it open folds its product again.
							if i := shared - 1; i == len(cur.de.Vars)-1 && len(overlapWithNext(next.de, i, nil)) > 0 {
								seen.refold++
							}
						}
						if len(next.de.Vars) == 1 {
							seen.single++
						}
						cur, kept = next, nk
					}
				}
			}
		}
	}
	t.Logf("%+v", seen)
	if seen.carried == 0 || seen.built == 0 || seen.refold == 0 || seen.single == 0 || seen.settled == 0 {
		t.Fatalf("a case went unexercised: %+v", seen)
	}
}

// refoldFixture is a trunk <e0,e1> whose arms e2… are each travelled
// only together with e1, never with e0: every child of <e0,e1>
// decomposes as <e0,e1> plus an overlapping <e1,arm>, so each one folds
// the parent's last product again, keeping e1 open.
func refoldFixture(t testing.TB, arms int) *HybridGraph {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i < 3+arms; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	b.AddEdge(vs[0], vs[1], 300, 50, graph.ClassSecondary)
	b.AddEdge(vs[1], vs[2], 300, 50, graph.ClassSecondary)
	for a := 0; a < arms; a++ {
		b.AddEdge(vs[2], vs[3+a], 300, 50, graph.ClassSecondary)
	}
	g := b.Freeze()
	params := DefaultParams()
	params.Beta = 8
	params.MaxRank = 3
	rnd := rand.New(rand.NewSource(11))
	var trajs []*gps.Matched
	for i := 0; i < 60*(arms+1); i++ {
		path, costs := graph.Path{0, 1}, []float64{25 + rnd.Float64()*10, 30 + rnd.Float64()*12}
		if a := i % (arms + 1); a > 0 {
			path = graph.Path{1, graph.EdgeID(1 + a)}
			costs = []float64{30 + rnd.Float64()*12, 20 + float64(a)*3 + rnd.Float64()*9}
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path,
			Depart:    float64(i%7)*gps.SecondsPerDay + 8*3600 + rnd.Float64()*900,
			EdgeCosts: costs,
		})
	}
	h, err := Build(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// INVARIANT: children of one memo-shared state that all need its last
// product, extended from many goroutines at once, are each the child the
// kept product gives, and the parent is left as it was (under -race:
// rebuilding the product writes nothing the siblings share).
func TestConcurrentRefoldsOfSharedState(t *testing.T) {
	const arms = 6
	h := refoldFixture(t, arms)
	const at = 8*3600 + 300
	for _, method := range chainMethods {
		opt := QueryOptions{Method: method}
		r := NewConvMemo(64)
		if _, err := h.pathState(nil, r, graph.Path{0, 1}, at, opt, nil); err != nil {
			t.Fatal(err)
		}
		parent, base := r.longestPrefix(graph.Path{0, 1}, at, opt)
		if base != 2 {
			t.Fatalf("%s: the memo holds no state for <e0,e1>", method)
		}
		k0, err := extendKept(h, nil, graph.Path{0}, at, opt, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		kept, err := extendKept(h, k0, graph.Path{0, 1}, at, opt, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*keptState, arms)
		for a := range want {
			if want[a], err = extendKept(h, kept, graph.Path{0, 1, graph.EdgeID(2 + a)}, at, opt, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		}
		if method == MethodOD && (len(want[0].de.Vars) != 2 || len(overlapWithNext(want[0].de, 0, nil)) != 1) {
			t.Fatalf("OD decomposes a child as %d factors: the fixture no longer refolds", len(want[0].de.Vars))
		}
		before := encodeStates(t, parent)
		var wg sync.WaitGroup
		errs := make(chan string, 4*arms)
		for round := 0; round < 4; round++ {
			for a := 0; a < arms; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					child, err := h.ExtendPath(parent, graph.EdgeID(2+a))
					if err != nil {
						errs <- err.Error()
						return
					}
					if diff := sameState(child, want[a]); diff != "" {
						errs <- fmt.Sprintf("%s: arm %d: %s", method, a, diff)
					}
				}(a)
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		after := encodeStates(t, parent)
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("%s: the shared parent's state %d changed", method, i)
			}
		}
	}
}
