package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hist"
)

// EvaluateDense materializes the full joint of Equation 2 on the
// common refinement grid and flattens it. Exponential in the query
// cardinality — a reference implementation used by tests and small
// queries to validate the chain evaluator.
func (h *HybridGraph) EvaluateDense(de *Decomposition, query graph.Path) (*hist.Histogram, error) {
	if err := de.Validate(query); err != nil {
		return nil, err
	}
	n := len(query)
	if n > 10 {
		return nil, fmt.Errorf("core: dense evaluation limited to 10 edges, got %d", n)
	}
	factorMs := make([]*hist.Multi, len(de.Vars))
	for i, v := range de.Vars {
		fm, err := asMulti(v)
		if err != nil {
			return nil, err
		}
		factorMs[i] = fm
	}
	// Remap every factor dimension onto the union grid of all factors
	// sharing the position, so cell indices agree across factors.
	for pos := 0; pos < n; pos++ {
		union := []float64(nil)
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				union = hist.UnionBounds(union, factorMs[i].Bounds(d))
			}
		}
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				var err error
				factorMs[i], err = factorMs[i].RemapDim(d, union)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Overlap marginals (denominators of Eq. 2).
	margs := make([]*hist.Multi, len(de.Vars)) // margs[i]: overlap of factor i with i−1
	for i := 1; i < len(de.Vars); i++ {
		prevEnd := de.Pos[i-1] + de.Vars[i-1].Rank() // exclusive
		var ovIdx []int
		for d := 0; d < de.Vars[i].Rank(); d++ {
			if de.Pos[i]+d < prevEnd {
				ovIdx = append(ovIdx, d)
			}
		}
		if len(ovIdx) > 0 {
			m, err := factorMs[i].MarginalOnto(ovIdx)
			if err != nil {
				return nil, err
			}
			margs[i] = m
		}
	}
	// Grid sizes per position (identical across factors after remap).
	gridBounds := make([][]float64, n)
	for pos := 0; pos < n; pos++ {
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				gridBounds[pos] = factorMs[i].Bounds(d)
				break
			}
		}
	}
	// Enumerate the full grid.
	counts := make([]int, n)
	total := 1
	for pos := range counts {
		counts[pos] = len(gridBounds[pos]) - 1
		total *= counts[pos]
		if total > 2_000_000 {
			return nil, fmt.Errorf("core: dense grid too large")
		}
	}
	// The joint over the full grid, in storage order: the last position
	// varies fastest, so every cell appends.
	joint, err := hist.NewMulti(gridBounds)
	if err != nil {
		return nil, err
	}
	idx := make([]int, n)
	advance := func() bool {
		for pos := n - 1; pos >= 0; pos-- {
			idx[pos]++
			if idx[pos] < counts[pos] {
				return true
			}
			idx[pos] = 0
		}
		return false
	}
	fIdx := make([]int, hist.MaxDims)
	for {
		pr := 1.0
		for i, v := range de.Vars {
			nd := v.Rank()
			for d := 0; d < nd; d++ {
				fIdx[d] = idx[de.Pos[i]+d]
			}
			pr *= cell(factorMs[i], fIdx[:nd])
			if pr == 0 {
				break
			}
			if margs[i] != nil {
				nOv := margs[i].Dims()
				for d := 0; d < nOv; d++ {
					fIdx[d] = idx[de.Pos[i]+d]
				}
				den := cell(margs[i], fIdx[:nOv])
				if den <= 0 {
					pr = 0
					break
				}
				pr /= den
			}
		}
		if pr > 0 {
			joint.SetCell(idx, pr) // each tuple is visited once
		}
		if !advance() {
			break
		}
	}
	if joint.NumCells() == 0 {
		return nil, fmt.Errorf("core: dense evaluation produced no mass")
	}
	// Flattening the joint is the Section 4.2 marginalization: each cell
	// contributes [Σ lo, Σ hi) with its mass, rearranged.
	return joint.SumHistogram(0)
}

// cell is m's probability at the given bucket indices, 0 for an empty
// cell.
func cell(m *hist.Multi, idx []int) float64 {
	var key hist.CellKey
	for d, i := range idx {
		key[d] = uint16(i)
	}
	pk := hist.PackKey(key)
	keys, probs := m.Cells()
	i := sort.Search(len(keys), func(i int) bool { return !keys[i].Less(pk) })
	if i < len(keys) && keys[i] == pk {
		return probs[i]
	}
	return 0
}
