package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hist"
)

// Differential test for the fold distribution: distributeFoldsInto
// (a slab-indexed table when no dimension is kept, else flat packed-key
// arrays with tail fast paths and binary-search inserts) against distributeFoldsRef (the retained Multi.AddCell walk). The
// two run the identical slab loop, so every per-cell float sum must
// match bit for bit.

// randomFoldCase builds a random cuts grid, kept-dim bounds, and fold
// list shaped like real accCuts/foldCells output — plus the edge cases
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

// INVARIANT: distributeFoldsInto ≡ distributeFoldsRef, bit for bit —
// same cells, same order, same accumulated probabilities.
func TestDistributeFoldsMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	sc := &evalScratch{}
	for trial := 0; trial < 500; trial++ {
		bounds, folds, cuts := randomFoldCase(rnd)
		if !sort.Float64sAreSorted(cuts) {
			t.Fatalf("trial %d: test bug, cuts unsorted", trial)
		}
		ref, err := hist.NewMulti(bounds)
		if err != nil {
			t.Fatal(err)
		}
		distributeFoldsRef(ref, folds, cuts)
		keys, probs := distributeFoldsInto(sc, folds, len(bounds)-1, cuts)
		rk, rp := ref.Cells()
		if len(keys) != len(rk) {
			t.Fatalf("trial %d: %d cells, reference %d", trial, len(keys), len(rk))
		}
		for i := range keys {
			if keys[i] != rk[i] {
				t.Fatalf("trial %d cell %d: key %v, reference %v",
					trial, i, keys[i].Unpack(), rk[i].Unpack())
			}
			if math.Float64bits(probs[i]) != math.Float64bits(rp[i]) {
				t.Fatalf("trial %d cell %d: probability differs at the bit level: %x vs %x",
					trial, i, math.Float64bits(probs[i]), math.Float64bits(rp[i]))
			}
		}
	}
}
