package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
)

// Differential tests for the fused chain step: convolveFold must be
// multiply followed by foldTo(nil) bit for bit — state cells, bounds,
// open dims, CellsTouched and error text — for every state with no open
// dimension and every factor, including the shapes the two-pass route
// handles by accident of its structure: zero-mass cells on either side,
// zero-width (point) buckets that make degenerate folds, an all-zero
// product, an accumulator axis starting at −0 (0 + −0 is +0, so a fused
// step that skipped foldCellsInto's leading 0 would show here), and a
// factor with no cells.

// randomAxis returns n+1 bucket bounds from start, in steps drawn from
// the given widths; a width of 0 repeats a bound (a point bucket, which
// only the trusted constructor admits).
func randomAxis(rnd *rand.Rand, n int, start float64, widths []float64) []float64 {
	bd := make([]float64, n+1)
	bd[0] = start
	for i := 1; i <= n; i++ {
		bd[i] = bd[i-1] + widths[rnd.Intn(len(widths))]
	}
	return bd
}

// randomCells draws an ascending subset of the grid's cells (always the
// first one, unless density is 0) with random masses, a zero mass one
// time in ten (or always, when zero is set).
func randomCells(rnd *rand.Rand, bounds [][]float64, density float64, zero bool) ([]hist.PackedKey, []float64) {
	var keys []hist.PackedKey
	var probs []float64
	var k hist.CellKey
	var walk func(d int)
	walk = func(d int) {
		if d == len(bounds) {
			if (density > 0 && len(keys) == 0) || rnd.Float64() < density {
				pr := 0.01 + rnd.Float64()
				if zero || rnd.Intn(10) == 0 {
					pr = 0
				}
				keys = append(keys, hist.PackKey(k))
				probs = append(probs, pr)
			}
			return
		}
		for i := 0; i+1 < len(bounds[d]); i++ {
			k[d] = uint16(i)
			walk(d + 1)
		}
		k[d] = 0
	}
	walk(0)
	return keys, probs
}

// randomFusedCase builds a state with no open dimension and a factor of
// rank 1–3 in one of the shapes listed above.
func randomFusedCase(rnd *rand.Rand) (*chainState, *hist.Multi) {
	widths := []float64{0.25, 0.5, 1.25, 3, 7.5}
	if rnd.Intn(5) == 0 {
		widths = append(widths, 0) // point buckets: degenerate folds
	}
	var start float64
	switch rnd.Intn(6) {
	case 0:
		start = math.Copysign(0, -1)
	case 1:
		start = 1e9 + float64(rnd.Intn(100)) // sums that round
	default:
		start = float64(rnd.Intn(40)) * 0.5
	}
	acc := randomAxis(rnd, 1+rnd.Intn(12), start, widths)
	if rnd.Intn(8) == 0 {
		acc = accSeedBounds
	}
	sKeys, sProbs := randomCells(rnd, [][]float64{acc}, 0.2+0.8*rnd.Float64(), rnd.Intn(40) == 0)
	sm, err := hist.NewMultiFromPackedCells([][]float64{acc}, sKeys, sProbs)
	if err != nil {
		panic(err)
	}

	rank := 1 + rnd.Intn(3)
	fb := make([][]float64, rank)
	for d := range fb {
		fstart := float64(rnd.Intn(6)) * 1.5
		if math.Signbit(start) && rnd.Intn(2) == 0 {
			fstart = start // −0 + −0 stays −0; only the leading 0 + makes it +0
		}
		fb[d] = randomAxis(rnd, 1+rnd.Intn(4), fstart, widths)
	}
	density := 0.2 + 0.8*rnd.Float64()
	if rnd.Intn(40) == 0 {
		density = 0 // a factor with no cells
	}
	fKeys, fProbs := randomCells(rnd, fb, density, rnd.Intn(40) == 0)
	fm, err := hist.NewMultiFromPackedCells(fb, fKeys, fProbs)
	if err != nil {
		panic(err)
	}
	return &chainState{m: sm}, fm
}

// snapshotMulti deep-copies a Multi's cells and bounds for a later
// sameMultiBits check that nothing mutated it.
func snapshotMulti(m *hist.Multi) *hist.Multi {
	keys, probs := m.Cells()
	bounds := make([][]float64, m.Dims())
	for d := range bounds {
		bounds[d] = append([]float64(nil), m.Bounds(d)...)
	}
	cp, err := hist.NewMultiFromPackedCells(bounds, append([]hist.PackedKey(nil), keys...), append([]float64(nil), probs...))
	if err != nil {
		panic(err)
	}
	return cp
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// INVARIANT: convolveFold ≡ multiply + foldTo(nil), bit for bit, with
// and without a ring slot, and neither mutates the state it reads.
func TestConvolveFoldMatchesMultiplyFold(t *testing.T) {
	rnd := rand.New(rand.NewSource(2600))
	ring := new(chainRing)
	var shapes struct{ zeroProduct, noCells, negZero, point, ok int }
	for trial := 0; trial < 3200; trial++ {
		s, fm := randomFusedCase(rnd)
		maxAcc := []int{0, 1, 3, 8, 48}[rnd.Intn(5)]
		before := snapshotMulti(s.m)
		positions := make([]int, fm.Dims())
		for i := range positions {
			positions[i] = 7 + i
		}

		var stRef, stFused, stRing EvalStats
		var ref *chainState
		prod, errRef := s.multiply(fm, positions, &stRef)
		if errRef == nil {
			ref, errRef = prod.foldTo(nil, maxAcc, nil)
		}
		fused, errFused := s.convolveFold(fm, &stFused, maxAcc, nil)
		inRing, errRing := s.convolveFold(fm, &stRing, maxAcc, slotAt(ring[:], trial))

		if errText(errRef) != errText(errFused) || errText(errRef) != errText(errRing) {
			t.Fatalf("trial %d: errors differ: two-pass %q, fused %q, ring %q", trial, errText(errRef), errText(errFused), errText(errRing))
		}
		if stRef.CellsTouched != stFused.CellsTouched || stRef.CellsTouched != stRing.CellsTouched {
			t.Fatalf("trial %d: CellsTouched two-pass %d, fused %d, ring %d", trial, stRef.CellsTouched, stFused.CellsTouched, stRing.CellsTouched)
		}
		sameMultiBits(t, s.m, before)
		if _, fProbs := fm.Cells(); len(fProbs) == 0 {
			shapes.noCells++
		}
		if math.Signbit(s.m.Bounds(0)[0]) {
			shapes.negZero++
		}
		if errRef != nil {
			shapes.zeroProduct++
			continue
		}
		shapes.ok++
		for _, got := range []*chainState{fused, inRing} {
			sameMultiBits(t, got.m, ref.m)
			if len(got.open) != 0 || len(ref.open) != 0 {
				t.Fatalf("trial %d: open dims %v vs %v", trial, got.open, ref.open)
			}
		}
		if err := checkCellContract(fused.m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if hasPointBucket(s.m) && hasPointBucket(fm) {
			shapes.point++
		}
	}
	t.Logf("shapes: %+v", shapes)
	if shapes.zeroProduct == 0 || shapes.noCells == 0 || shapes.negZero == 0 || shapes.point == 0 || shapes.ok < 2500 {
		t.Fatalf("the generator missed a required shape: %+v", shapes)
	}
}

// hasPointBucket reports whether some axis of m repeats a bound.
func hasPointBucket(m *hist.Multi) bool {
	for d := 0; d < m.Dims(); d++ {
		bd := m.Bounds(d)
		for i := 1; i < len(bd); i++ {
			if bd[i] == bd[i-1] {
				return true
			}
		}
	}
	return false
}

// longChainFixture trains a model over a 48-edge chain. Most
// trajectories span one or two edges, and four hot segments carry
// longer ones, so a full-length query decomposes under OD much as the
// city's long paths do: dozens of factors, nearly all sharing no edge
// with the next, and one pair of rank-3 factors that overlap.
func longChainFixture(t testing.TB) (*HybridGraph, graph.Path) {
	t.Helper()
	const nEdges = 48
	rnd := rand.New(rand.NewSource(48))
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= nEdges; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	for i := 0; i < nEdges; i++ {
		b.AddEdge(vs[i], vs[i+1], 200+rnd.Float64()*400, 50, graph.ClassSecondary)
	}
	g := b.Freeze()
	params := DefaultParams()
	params.Beta = 8
	params.MaxRank = 3
	var trajs []*gps.Matched
	for i := 0; i < 800; i++ {
		start, span := rnd.Intn(nEdges), 1+rnd.Intn(5)/4
		if i%8 == 0 {
			start, span = 6+12*rnd.Intn(4), 3
			if start == 42 {
				span += rnd.Intn(2) // the one segment whose rank-3 factors overlap
			}
		}
		if start+span > nEdges {
			span = nEdges - start
		}
		path := make(graph.Path, span)
		costs := make([]float64, span)
		base := 20 + rnd.Float64()*10
		if rnd.Float64() < 0.4 {
			base *= 2.2
		}
		for j := range path {
			path[j] = graph.EdgeID(start + j)
			costs[j] = base + rnd.Float64()*8
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path, Depart: float64(i%7)*gps.SecondsPerDay + 8*3600 + rnd.Float64()*1200, EdgeCosts: costs,
		})
	}
	h, err := Build(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return h, chainPath(0, nEdges)
}

// chainPath returns the path over edges [lo, lo+n).
func chainPath(lo, n int) graph.Path {
	p := make(graph.Path, n)
	for i := range p {
		p[i] = graph.EdgeID(lo + i)
	}
	return p
}

// decompose returns the decomposition method m chooses for p at t.
func decompose(t testing.TB, h *HybridGraph, p graph.Path, at float64, m Method) *Decomposition {
	t.Helper()
	ca, err := h.BuildCandidateArray(p, at)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Release()
	switch m {
	case MethodOD:
		return ca.CoarsestDecomposition(0)
	case MethodHP:
		return ca.PairDecomposition()
	default:
		return ca.UnitDecomposition()
	}
}

// INVARIANT: the two slots of a recycling evaluation's ring belong to
// it alone. Two chains whose lifetimes overlap on one goroutine hold
// disjoint rings and leave each other's final states untouched, and
// evaluations on several goroutines at once (under -race, too) answer
// exactly what one evaluation at a time answers.
func TestChainRingNeverShared(t *testing.T) {
	h, full := longChainFixture(t)
	const at = 8 * 3600
	type query struct {
		de *Decomposition
		p  graph.Path
	}
	var queries []query
	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		for _, n := range []int{40, 44, 48} {
			p := full[48-n:]
			queries = append(queries, query{decompose(t, h, p, at, m), p})
		}
	}
	want := make([]*hist.Histogram, len(queries))
	for i, q := range queries {
		out, _, err := h.Evaluate(q.de, q.p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	// One goroutine: chain A's final state stays live while chain B
	// runs in a second ring and a whole Evaluate runs in a third.
	ringA, ringB := ringPool.Get().(*chainRing), ringPool.Get().(*chainRing)
	a, err := h.runChain(nil, queries[0].de, 0, nil, nil, nil, ringA[:])
	if err != nil {
		t.Fatal(err)
	}
	snapA := snapshotMulti(a.m)
	b, err := h.runChain(nil, queries[5].de, 0, nil, nil, nil, ringB[:])
	if err != nil {
		t.Fatal(err)
	}
	if &a.m.Bounds(0)[0] == &b.m.Bounds(0)[0] {
		t.Fatal("two live evaluations share an accumulator-axis buffer")
	}
	for _, sx := range ringA {
		for _, sy := range ringB {
			if x, y := sx.axis, sy.axis; cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0] {
				t.Fatal("two live rings share a cut buffer")
			}
		}
	}
	if got, _, err := h.Evaluate(queries[7].de, queries[7].p); err != nil || !identicalHist(got, want[7]) {
		t.Fatalf("an evaluation interleaved with two live chains diverged (err %v)", err)
	}
	sameMultiBits(t, a.m, snapA)
	ringA.release()
	ringB.release()

	// Several goroutines, each its own order over the queries.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				for j := range queries {
					i := (j*(w+1) + rep) % len(queries)
					got, _, err := h.Evaluate(queries[i].de, queries[i].p)
					if err != nil {
						errs <- err
						return
					}
					if !identicalHist(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d: query %d diverged", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkCellContract verifies the sorted-cell storage contract that
// hist.NewMultiFromPackedCells trusts its callers with: strictly
// ascending keys, in-range indices, zero unused dimensions.
func checkCellContract(m *hist.Multi) error {
	keys, _ := m.Cells()
	for i, pk := range keys {
		if i > 0 && !keys[i-1].Less(pk) {
			return fmt.Errorf("cell keys not in ascending order at %d", i)
		}
		k := pk.Unpack()
		for d := range k {
			if d < m.Dims() && int(k[d]) >= m.NumBuckets(d) {
				return fmt.Errorf("cell %d index %d out of range on dim %d", i, k[d], d)
			}
			if d >= m.Dims() && k[d] != 0 {
				return fmt.Errorf("cell %d has non-zero index on unused dim %d", i, d)
			}
		}
	}
	return nil
}
