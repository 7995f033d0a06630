package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// What one routing expansion may skip, and what it may not: the child
// resumed from its parent's shared fold is the child the old order
// built; a child settled before the kernel would have contributed an
// exact zero; and neither shortcut is taken where its argument does
// not hold.

var chainMethods = []Method{MethodOD, MethodHP, MethodLB}

// encodeStates dumps every chain state a PathState holds — the folded
// state after each factor — and the last factor's product a child may
// fold again.
func encodeStates(t *testing.T, s *PathState) [][]byte {
	t.Helper()
	pre, err := s.lastProduct(factorPositions(s.de, len(s.de.Vars)-1))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, cs := range append(append([]*chainState(nil), s.inter...), &pre) {
		b, err := (&ChainState{cs: cs}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// INVARIANT: resuming from the fold the parent already holds builds
// the state that re-folding the parent's pre-fold state built — every
// chain state byte for byte, and the same marginal.
func TestSharedFoldMatchesRefold(t *testing.T) {
	sharedFolds := 0
	for seed := int64(1); seed <= 12; seed++ {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			t.Fatal(err)
		}
		_, departs := oracleQueries(g, seed)
		for _, method := range chainMethods {
			for _, dep := range departs {
				parent, err := h.StartPath(0, dep, QueryOptions{Method: method}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for e := graph.EdgeID(1); int(e) < g.NumEdges(); e++ {
					shared, err := h.ExtendPath(parent, e)
					if err != nil {
						t.Fatalf("seed %d %s: extend by %d: %v", seed, method, e, err)
					}
					refolded, err := extendRefolding(h, parent, e)
					if err != nil {
						t.Fatalf("seed %d %s: refolding extend by %d: %v", seed, method, e, err)
					}
					got, want := encodeStates(t, shared), encodeStates(t, refolded)
					if len(got) != len(want) {
						t.Fatalf("seed %d %s %v: %d chain states, refolded %d", seed, method, shared.Path(), len(got), len(want))
					}
					for i := range got {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("seed %d %s %v: chain state %d differs from the refolded one", seed, method, shared.Path(), i)
						}
					}
					if !identicalHist(shared.Dist(), refolded.Dist()) {
						t.Fatalf("seed %d %s %v: marginal differs from the refolded one", seed, method, shared.Path())
					}
					// The comparison is between the two orders only if each
					// side took its own: one holds the parent's fold itself,
					// the other never does.
					if last := len(parent.inter) - 1; last < len(shared.inter)-1 {
						if shared.inter[last] == parent.inter[last] {
							sharedFolds++
						}
						if refolded.inter[last] == parent.inter[last] {
							t.Fatalf("seed %d %s %v: the refolding extend shared the parent's fold", seed, method, shared.Path())
						}
					}
					parent = shared
				}
			}
		}
	}
	if sharedFolds == 0 {
		t.Fatal("no extension resumed from its parent's fold")
	}
}

// forkFixture is a two-edge trunk <e0,e1> that fans out into `arms`
// edges, with trajectories down every arm: one parent state with that
// many sibling extensions.
func forkFixture(t testing.TB, arms int) (*graph.Graph, *gps.Collection, Params) {
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
	rnd := rand.New(rand.NewSource(9))
	var trajs []*gps.Matched
	for i := 0; i < 60*arms; i++ {
		arm := graph.EdgeID(2 + i%arms)
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: graph.Path{0, 1, arm},
			Depart:    float64(i%7)*gps.SecondsPerDay + 8*3600 + rnd.Float64()*900,
			EdgeCosts: []float64{25 + rnd.Float64()*10, 30 + rnd.Float64()*12, 20 + float64(arm)*3 + rnd.Float64()*9},
		})
	}
	return g, gps.NewCollection(trajs, 0), params
}

// extendWithin is ExtendPathWithin failing the test on an error.
func extendWithin(t *testing.T, h *HybridGraph, s *PathState, e graph.EdgeID, within float64) (*PathState, bool) {
	t.Helper()
	ns, settled, err := h.ExtendPathWithin(s, e, within, nil)
	if err != nil {
		t.Fatalf("extend %v by %d within %v: %v", s.Path(), e, within, err)
	}
	if settled != (ns == nil) {
		t.Fatalf("extend %v by %d within %v: settled = %v with state %v", s.Path(), e, within, settled, ns)
	}
	return ns, settled
}

// canSettle states, from the two decompositions alone, when the
// zero-side rule applies: the child keeps every factor of its parent
// and adds exactly one, which starts past the parent's last edge.
func canSettle(parent, child *PathState) bool {
	pd, cd := parent.de, child.de
	if len(cd.Vars) != len(pd.Vars)+1 {
		return false
	}
	for i := range pd.Vars {
		if pd.Vars[i] != cd.Vars[i] || pd.Pos[i] != cd.Pos[i] {
			return false
		}
	}
	return cd.Pos[len(cd.Vars)-1] == len(parent.path)
}

// PROPERTY: whenever the bounded extend reports "settled", the child
// the plain extend builds has CDF(x) == 0 exactly and Min() ≥ x; the
// rule fires exactly where canSettle says it can and then exactly for
// x ≤ supportMin ≤ Min(); and +Inf — what the search passes for an
// edge into its destination — never settles.
func TestPropertySettledMeansZero(t *testing.T) {
	fired, fell := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			t.Fatal(err)
		}
		_, departs := oracleQueries(g, seed)
		rnd := rand.New(rand.NewSource(seed))
		for _, method := range chainMethods {
			opt := QueryOptions{Method: method}
			parent, err := h.StartPath(0, departs[0], opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			for e := graph.EdgeID(1); int(e) < g.NumEdges(); e++ {
				exact, err := h.ExtendPath(parent, e)
				if err != nil {
					t.Fatal(err)
				}
				d := exact.Dist()
				probe := func(x float64) bool {
					ns, settled := extendWithin(t, h, parent, e, x)
					switch {
					case settled:
						if c := d.CDF(x); c != 0 || d.Min() < x {
							t.Fatalf("seed %d %s %v: settled within %v but CDF = %v, Min() = %v", seed, method, exact.Path(), x, c, d.Min())
						}
					case !identicalHist(ns.Dist(), d):
						t.Fatalf("seed %d %s %v: bounded extend within %v built a different child", seed, method, exact.Path(), x)
					}
					return settled
				}

				able := canSettle(parent, exact)
				if settled := probe(math.Inf(-1)); settled != able {
					t.Fatalf("seed %d %s %v: settled below every cost = %v, want %v", seed, method, exact.Path(), settled, able)
				}
				if probe(math.Inf(1)) {
					t.Fatalf("seed %d %s %v: settled with no limit", seed, method, exact.Path())
				}
				if able {
					fired++
					fm, err := asMulti(exact.de.Vars[len(exact.de.Vars)-1])
					if err != nil {
						t.Fatal(err)
					}
					L := parent.inter[len(parent.inter)-1].supportMin(fm)
					if d.Min() < L {
						t.Fatalf("seed %d %s %v: Min() %v below the support minimum %v", seed, method, exact.Path(), d.Min(), L)
					}
					if !probe(L) || probe(math.Nextafter(L, math.Inf(1))) {
						t.Fatalf("seed %d %s %v: the rule does not switch at the support minimum %v", seed, method, exact.Path(), L)
					}
				} else {
					fell++
				}
				// Limits straddling the support.
				span := d.Max() - d.Min()
				for _, x := range []float64{
					d.Min() - 1, d.Min(), d.Min() + 1e-9, d.Mean(), d.Max() + 1,
					d.Min() + (rnd.Float64()*1.4-0.2)*span, d.Min() - rnd.Float64()*span,
				} {
					probe(x)
				}
				parent = exact
			}
		}
	}
	t.Logf("%d extensions could settle, %d could not", fired, fell)
	if fired == 0 || fell == 0 {
		t.Fatalf("the fixtures exercised one side only: %d extensions could settle, %d could not", fired, fell)
	}
}

// extendSiblingsConcurrently extends one parent along its siblings
// from several goroutines at once (the second half of
// TestIncrementalParentRemainsUsable): they share its fold, none may
// write to it, and each must equal the child built alone.
func extendSiblingsConcurrently(t *testing.T) {
	const arms = 4
	g, data, params := forkFixture(t, arms)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range chainMethods {
		parent, err := h.pathState(nil, nil, graph.Path{0, 1}, 8*3600+300, QueryOptions{Method: method}, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := encodeStates(t, parent)
		want := make([]*PathState, arms)
		for a := range want {
			if want[a], err = extendRefolding(h, parent, graph.EdgeID(2+a)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for round := 0; round < 4; round++ {
			for a := 0; a < arms; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					got, err := h.ExtendPath(parent, graph.EdgeID(2+a))
					if err != nil {
						t.Error(err)
						return
					}
					if !identicalHist(got.Dist(), want[a].Dist()) {
						t.Errorf("%s: sibling %d differs from the child built alone", method, a)
					}
				}(a)
			}
		}
		wg.Wait()
		after := encodeStates(t, parent)
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("%s: parent chain state %d changed while its siblings were extended", method, i)
			}
		}
	}
}
