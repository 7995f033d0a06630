package core

import (
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// Unit tests pinning foldCells' ordering invariant: folds must be
// produced in sorted cell-key order, because accCuts and
// distributeFolds accumulate floats over the fold sequence and float
// addition is not associative — map-order iteration would make chain
// states (and everything downstream: memo entries, served answers) drift at the bit level between runs.

// foldFixtureMulti builds a 3-dim multi with adversarial masses (ones
// mixed with ~1e-16s) inserted in permuted order.
func foldFixtureMulti(t *testing.T, rnd *rand.Rand) *hist.Multi {
	t.Helper()
	bounds := [][]float64{
		{0, 1e-9, 5, 9},
		{0, 2, 4, 8, 16},
		{0, 3, 6},
	}
	m, err := hist.NewMulti(bounds)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		idx []int
		pr  float64
	}
	var cells []cell
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 2; k++ {
				if rnd.Intn(3) == 0 {
					continue // keep it sparse
				}
				pr := rnd.Float64() * 1e-16
				if (i+j+k)%3 == 0 {
					pr = 1.0
				}
				cells = append(cells, cell{idx: []int{i, j, k}, pr: pr})
			}
		}
	}
	if len(cells) == 0 {
		cells = append(cells, cell{idx: []int{0, 0, 0}, pr: 1})
	}
	for _, ci := range rnd.Perm(len(cells)) {
		m.SetCell(cells[ci].idx, cells[ci].pr)
	}
	return m
}

// INVARIANT: the fold sequence follows sorted cell-key order exactly.
func TestFoldCellsSortedOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		m := foldFixtureMulti(t, rnd)
		for _, keepIdx := range [][]int{nil, {1}, {2}, {1, 2}} {
			folds, nKept, err := foldCells(m, keepIdx)
			if err != nil {
				t.Fatal(err)
			}
			if nKept != len(keepIdx) {
				t.Fatalf("nKept = %d, want %d", nKept, len(keepIdx))
			}
			// Reconstruct the expected sequence via ForEachSorted and
			// compare element-wise: same order, same folded intervals,
			// same kept indexes, same probabilities.
			var want []cellFold
			m.ForEachSorted(func(k hist.CellKey, pr float64) {
				keepSet := make(map[int]bool, len(keepIdx))
				for _, d := range keepIdx {
					keepSet[d] = true
				}
				var lo, hi float64
				for d := 0; d < m.Dims(); d++ {
					if keepSet[d] {
						continue
					}
					l, u := m.BucketRange(d, int(k[d]))
					lo += l
					hi += u
				}
				idx := make([]int, len(keepIdx))
				for i, d := range keepIdx {
					idx[i] = int(k[d])
				}
				want = append(want, cellFold{lo: lo, hi: hi, idx: idx, pr: pr})
			})
			if len(folds) != len(want) {
				t.Fatalf("keep %v: %d folds, want %d", keepIdx, len(folds), len(want))
			}
			for i := range folds {
				if folds[i].lo != want[i].lo || folds[i].hi != want[i].hi || folds[i].pr != want[i].pr {
					t.Fatalf("keep %v: fold %d = %+v, want %+v (order or content drift)",
						keepIdx, i, folds[i], want[i])
				}
				for j := range folds[i].idx {
					if folds[i].idx[j] != want[i].idx[j] {
						t.Fatalf("keep %v: fold %d kept idx differs", keepIdx, i)
					}
				}
			}
		}
	}
}

// INVARIANT: two multis with identical cells inserted in different
// orders fold to bit-identical sequences, so accCuts and
// distributeFolds see the same float stream and chain states are
// insertion-order independent.
func TestFoldCellsInsertionOrderIndependent(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		a := foldFixtureMulti(t, rand.New(rand.NewSource(int64(100+trial))))
		b := foldFixtureMulti(t, rand.New(rand.NewSource(int64(100+trial))))
		// Same seed twice gives identical cells; force a genuinely
		// different insertion order by rebuilding b's grid from a's
		// sorted dump in reverse.
		bounds := make([][]float64, b.Dims())
		for d := range bounds {
			bounds[d] = b.Bounds(d)
		}
		rebuilt, err := hist.NewMulti(bounds)
		if err != nil {
			t.Fatal(err)
		}
		type cv struct {
			idx []int
			pr  float64
		}
		var cells []cv
		a.ForEachSorted(func(k hist.CellKey, pr float64) {
			cells = append(cells, cv{idx: []int{int(k[0]), int(k[1]), int(k[2])}, pr: pr})
		})
		for i := len(cells) - 1; i >= 0; i-- {
			rebuilt.SetCell(cells[i].idx, cells[i].pr)
		}
		for _, keepIdx := range [][]int{nil, {0}, {1, 2}} {
			fa, _, err1 := foldCells(a, keepIdx)
			fb, _, err2 := foldCells(rebuilt, keepIdx)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if len(fa) != len(fb) {
				t.Fatalf("trial %d keep %v: fold counts differ", trial, keepIdx)
			}
			for i := range fa {
				if fa[i].lo != fb[i].lo || fa[i].hi != fb[i].hi || fa[i].pr != fb[i].pr {
					t.Fatalf("trial %d keep %v: fold %d differs across insertion orders", trial, keepIdx, i)
				}
			}
		}
	}
}
