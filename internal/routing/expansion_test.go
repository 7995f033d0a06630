package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/hist"
)

// The search settles a prefix whose remaining budget is at or below
// its cost-support minimum without evaluating it. That is a shortcut
// through the same walk, never a different walk: against the search
// that settles nothing (every child evaluated) and, for BestPath, the
// one that evaluates every prefix from scratch (scratchBestPath), the
// answer, its distribution and both counters must not move —
// across a budget sweep that reaches from "everything is settled" to
// "nothing is".

var sweepBudgets = []float64{0.5, 0.8, 1.0, 1.15, 1.3, 1.6, 2.5}

// sameErr fails unless both searches failed alike or both succeeded,
// and reports whether there is an answer to compare.
func sameErr(t *testing.T, what string, gotErr, wantErr error) bool {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	return gotErr == nil
}

// sameBuckets asserts bucket-level identity of two distributions.
func sameBuckets(t *testing.T, ctx string, a, b *hist.Histogram) {
	t.Helper()
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		t.Fatalf("%s: %d vs %d buckets", ctx, len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("%s: bucket %d differs: %+v vs %+v", ctx, i, ab[i], bb[i])
		}
	}
}

func sameResult(t *testing.T, what string, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if !sameErr(t, what, gotErr, wantErr) {
		return
	}
	if !got.Path.Equal(want.Path) || got.Prob != want.Prob {
		t.Fatalf("%s: %v p=%v, want %v p=%v", what, got.Path, got.Prob, want.Path, want.Prob)
	}
	sameBuckets(t, what, got.Dist, want.Dist)
	if got.Explored != want.Explored || got.Pruned != want.Pruned {
		t.Fatalf("%s: explored %d pruned %d, want %d and %d", what, got.Explored, got.Pruned, want.Explored, want.Pruned)
	}
}

func sameRanking(t *testing.T, what string, got, want []TopKResult, gotErr, wantErr error) {
	t.Helper()
	if !sameErr(t, what, gotErr, wantErr) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Path.Equal(want[i].Path) || got[i].Prob != want[i].Prob {
			t.Fatalf("%s: rank %d is %v p=%v, want %v p=%v", what, i, got[i].Path, got[i].Prob, want[i].Path, want[i].Prob)
		}
		sameBuckets(t, what, got[i].Dist, want[i].Dist)
	}
}

func TestSettledSearchIdentical(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	orig := extendWithin
	defer func() { extendWithin = orig }()
	settled := 0
	counting := func(h *core.HybridGraph, s *core.PathState, e graph.EdgeID, within float64, slot *core.PathSlot) (*core.PathState, bool, error) {
		ns, ok, err := orig(h, s, e, within, slot)
		if ok {
			settled++
		}
		return ns, ok, err
	}
	unlimited := func(h *core.HybridGraph, s *core.PathState, e graph.EdgeID, _ float64, slot *core.PathSlot) (*core.PathState, bool, error) {
		return orig(h, s, e, math.Inf(1), slot)
	}
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		for _, f := range sweepBudgets {
			q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * f}
			what := fmt.Sprintf("%s budget %.2f×", m, f)
			inc := Options{Method: m}

			extendWithin = counting
			got, gotErr := r.BestPath(q, inc)
			top, topErr := r.TopKPaths(q, 3, inc)
			sky, skyErr := r.SkylinePaths(q, 8, inc)
			extendWithin = unlimited
			all, allErr := r.BestPath(q, inc)
			topAll, topAllErr := r.TopKPaths(q, 3, inc)
			skyAll, skyAllErr := r.SkylinePaths(q, 8, inc)
			scratch, scratchErr := scratchBestPath(r, q, Options{Method: m})

			sameResult(t, what+" BestPath vs from-scratch", got, scratch, gotErr, scratchErr)
			sameResult(t, what+" BestPath vs settling nothing", got, all, gotErr, allErr)
			sameRanking(t, what+" TopKPaths vs settling nothing", top, topAll, topErr, topAllErr)
			sameRanking(t, what+" SkylinePaths vs settling nothing", sky, skyAll, skyErr, skyAllErr)
		}
	}
	if settled == 0 {
		t.Fatal("the budget sweep never settled a prefix before the kernel")
	}
}

// The frontier is ordered by slices.SortFunc where it used to be
// sort.Slice; ties between equally distant neighbours must keep the
// order they had, or the walk — and Explored, Pruned, the incumbent —
// changes.
func TestFrontierOrderMatchesSortSlice(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rnd.Intn(40)
		b := graph.NewBuilder()
		hub := b.AddVertex(geo.Point{})
		lb := []float64{0}
		for i := 0; i < n; i++ {
			v := b.AddVertex(geo.Point{Lat: float64(i + 1)})
			b.AddEdge(hub, v, 100, 50, graph.ClassSecondary)
			lb = append(lb, float64(rnd.Intn(1+n/3))) // many ties
		}
		g := b.Freeze()
		want := append([]graph.EdgeID(nil), g.Out(hub)...)
		sort.Slice(want, func(i, j int) bool {
			return lb[g.Edge(want[i]).To] < lb[g.Edge(want[j]).To]
		})
		var fr frontier
		fr.push(g, lb, hub) // a list below the one under test
		got := fr.push(g, lb, hub)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: frontier order %v, sort.Slice gave %v (lb %v)", trial, got, want, lb)
		}
		fr.pop(got)
		if len(fr) != n {
			t.Fatalf("trial %d: pop left %d edges on the stack, want %d", trial, len(fr), n)
		}
	}
}
