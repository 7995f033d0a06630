package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hist"
)

// Differential test for the fold distribution: distributeFoldsInto
// (a slab-indexed table when no dimension is kept, else flat packed-key
// arrays with tail fast paths and binary-search inserts) against distributeFoldsRef (the retained Multi cell-by-cell walk). The
// two run the identical slab loop, so every per-cell float sum must
// match bit for bit.

// distributeFoldsRef is the reference fold distribution — the same
// slab walk accumulating into the Multi's cell immediately: each
// positive add is SetCell of the cell's running sum, which for an
// absent cell is 0 + add = add exactly. It is the
// differential oracle for distributeFoldsInto (see
// TestDistributeFoldsMatchesReference); the float sequence per cell is
// identical by construction.
func distributeFoldsRef(out *hist.Multi, folds []cellFold, cuts []float64) {
	var idxArr [hist.MaxDims]int
	idxBuf := idxArr[:out.Dims()]
	for _, f := range folds {
		lo, hi := f.lo, f.hi
		if !(hi > lo) {
			hi = lo + 1e-9
		}
		w := hi - lo
		s := sort.SearchFloat64s(cuts, lo)
		if s > 0 {
			s--
		}
		for ; s+1 < len(cuts); s++ {
			if cuts[s] >= hi {
				break
			}
			ol := math.Min(cuts[s+1], hi) - math.Max(cuts[s], lo)
			if ol <= 0 {
				continue
			}
			add := f.pr * ol / w
			if add == 0 {
				continue
			}
			idxBuf[0] = s
			copy(idxBuf[1:], f.idx)
			out.SetCell(idxBuf, cell(out, idxBuf)+add)
		}
	}
}

// randomFoldCase builds a random cuts grid, kept-dim bounds, and fold
// list shaped like real accCuts/foldCellsInto output — plus the edge cases
// the evaluator produces: degenerate (point) folds, folds clipped at
// either end of the cut range, folds starting or ending exactly on a
// cut or on an earlier fold's lo, zero-mass folds (every add is
// skipped), and repeated kept-dim indexes forcing out-of-order
// accumulation across folds. One case in three keeps no dimension —
// the slab-table path.
func randomFoldCase(rnd *rand.Rand) ([][]float64, []cellFold, []float64) {
	nCuts := 2 + rnd.Intn(8)
	cuts := make([]float64, 0, nCuts)
	x := float64(rnd.Intn(4))
	for i := 0; i < nCuts; i++ {
		cuts = append(cuts, x)
		x += 0.5 + float64(rnd.Intn(6))*0.75
	}
	kd := rnd.Intn(3) // kept dims beyond the accumulator
	bounds := make([][]float64, 1+kd)
	bounds[0] = cuts
	nb := make([]int, kd)
	for d := 0; d < kd; d++ {
		nb[d] = 1 + rnd.Intn(4)
		bd := make([]float64, nb[d]+1)
		for i := range bd {
			bd[i] = float64(i) * 2.5
		}
		bounds[1+d] = bd
	}
	span := cuts[len(cuts)-1] - cuts[0]
	folds := make([]cellFold, 1+rnd.Intn(12))
	for i := range folds {
		lo := cuts[0] + (rnd.Float64()*1.4-0.2)*span // may start outside the grid
		switch rnd.Intn(6) {
		case 0:
			lo = cuts[rnd.Intn(len(cuts))] // exactly on a cut
		case 1:
			if i > 0 {
				lo = folds[rnd.Intn(i)].lo // an earlier fold's lo again
			}
		}
		var hi float64
		switch rnd.Intn(5) {
		case 0:
			hi = lo // degenerate point fold
		case 1:
			hi = cuts[rnd.Intn(len(cuts))] // ends on a cut (or before lo: a point fold)
		default:
			hi = lo + rnd.Float64()*span/2
		}
		idx := make([]int, kd)
		for d := range idx {
			idx[d] = rnd.Intn(nb[d])
		}
		pr := 0.01 + rnd.Float64()
		if rnd.Intn(6) == 0 {
			pr = 0
		}
		folds[i] = cellFold{lo: lo, hi: hi, idx: idx, pr: pr}
	}
	return bounds, folds, cuts
}

// evaluatorOrderFolds is what a fused chain step hands the
// distribution: one fold per (accumulator cell, factor cell) pair,
// accumulator-major, so lo climbs within an accumulator cell and falls
// back at the next — the walk from the previous fold's slab goes both
// ways. The cuts are the folds' own endpoints, some dropped.
func evaluatorOrderFolds(rnd *rand.Rand) ([]cellFold, []float64) {
	acc := make([]float64, 2+rnd.Intn(10))
	fac := make([]float64, 2+rnd.Intn(5))
	for _, axis := range [][]float64{acc, fac} {
		axis[0] = float64(rnd.Intn(8))
		for i := 1; i < len(axis); i++ {
			axis[i] = axis[i-1] + 0.25 + float64(rnd.Intn(8))*0.5
		}
	}
	var folds []cellFold
	var cuts []float64
	for a := 0; a+1 < len(acc); a++ {
		for f := 0; f+1 < len(fac); f++ {
			lo, hi := acc[a]+fac[f], acc[a+1]+fac[f+1]
			folds = append(folds, cellFold{lo: lo, hi: hi, pr: 0.01 + rnd.Float64()})
			for _, c := range []float64{lo, hi} {
				if rnd.Intn(3) > 0 {
					cuts = append(cuts, c)
				}
			}
		}
	}
	cuts = append(cuts, acc[0]+fac[0]+float64(rnd.Intn(3)), acc[len(acc)-1]+fac[len(fac)-1])
	sort.Float64s(cuts)
	return folds, dedupCuts(cuts)
}

func dedupCuts(cuts []float64) []float64 {
	out := cuts[:1]
	for _, c := range cuts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// checkDistribute runs both distributions on one case and compares
// them bit for bit.
func checkDistribute(t *testing.T, sc *evalScratch, what string, bounds [][]float64, folds []cellFold, cuts []float64) {
	t.Helper()
	if !sort.Float64sAreSorted(cuts) {
		t.Fatalf("%s: test bug, cuts unsorted", what)
	}
	ref, err := hist.NewMulti(bounds)
	if err != nil {
		t.Fatal(err)
	}
	distributeFoldsRef(ref, folds, cuts)
	keys, probs := distributeFoldsInto(sc, folds, len(bounds)-1, cuts)
	rk, rp := ref.Cells()
	if len(keys) != len(rk) {
		t.Fatalf("%s: %d cells, reference %d", what, len(keys), len(rk))
	}
	for i := range keys {
		if keys[i] != rk[i] {
			t.Fatalf("%s cell %d: key %v, reference %v",
				what, i, keys[i].Unpack(), rk[i].Unpack())
		}
		if math.Float64bits(probs[i]) != math.Float64bits(rp[i]) {
			t.Fatalf("%s cell %d: probability differs at the bit level: %x vs %x",
				what, i, math.Float64bits(probs[i]), math.Float64bits(rp[i]))
		}
	}
}

// INVARIANT: distributeFoldsInto ≡ distributeFoldsRef, bit for bit —
// same cells, same order, same accumulated probabilities — in random
// fold order, in the evaluator's accumulator-major order, and when the
// walk's starting slab sits past the last cut.
func TestDistributeFoldsMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	sc := &evalScratch{}
	for trial := 0; trial < 500; trial++ {
		bounds, folds, cuts := randomFoldCase(rnd)
		checkDistribute(t, sc, fmt.Sprintf("trial %d", trial), bounds, folds, cuts)
	}
	for trial := 0; trial < 500; trial++ {
		folds, cuts := evaluatorOrderFolds(rnd)
		checkDistribute(t, sc, fmt.Sprintf("evaluator order %d", trial), [][]float64{cuts}, folds, cuts)
	}
	// A fold wholly past the last cut leaves the walk at len(cuts); the
	// next starts below the first cut, then one inside, then one on a cut.
	cuts := []float64{2, 3.5, 5, 8}
	folds := []cellFold{
		{lo: 9, hi: 10, pr: 0.3},
		{lo: 0.5, hi: 2.5, pr: 0.2},
		{lo: 4, hi: 6, pr: 0.4},
		{lo: 8, hi: 9, pr: 0.1},
		{lo: 3.5, hi: 3.5, pr: 0.1},
		{lo: 1, hi: 1.5, pr: 0.2},
	}
	checkDistribute(t, sc, "past the last cut", [][]float64{cuts}, folds, cuts)
}
