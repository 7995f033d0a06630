package experiments

import (
	"fmt"

	"repro/internal/core"
)

// Fig8 reproduces the α sweep (Figure 8): edge coverage and average
// variable entropy per rank as the interval granularity grows.
func Fig8(e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  fmt.Sprintf("Effect of α, %s", e.Cfg.Name),
		Header: []string{"α (min)", "coverage", "H rank1", "H rank2", "H rank3+", "#vars"},
	}
	var coverages []float64
	for _, alpha := range []int{15, 30, 60, 120} {
		params := e.Params()
		params.AlphaMinutes = alpha
		h, err := e.Hybrid(params, 1)
		if err != nil {
			return nil, err
		}
		st := h.Stats()
		sums, counts := entropyByRank(h)
		row := []string{d0(alpha), pct(st.Coverage())}
		for r := 0; r < 3; r++ {
			if counts[r] > 0 {
				row = append(row, f2(sums[r]/float64(counts[r])))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, d0(st.TotalVariables()))
		t.Rows = append(t.Rows, row)
		coverages = append(coverages, st.Coverage())
	}
	if w := verifyShape(coverages, true); w != "" {
		t.Note("%s", w)
	}
	t.Note("paper shape: coverage grows with α; entropy grows with α (coarser intervals mix more traffic)")
	return t, nil
}

// Fig9 reproduces the β sweep (Figure 9): instantiated variables per
// rank as the qualified-trajectory threshold grows.
func Fig9(e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("Effect of β, %s", e.Cfg.Name),
		Header: []string{"β", "|V|=1", "|V|=2", "|V|=3", "|V|>=4", "total"},
	}
	var totals []float64
	for _, beta := range []int{15, 30, 45, 60} {
		params := e.Params()
		params.Beta = beta
		h, err := e.Hybrid(params, 1)
		if err != nil {
			return nil, err
		}
		st := h.Stats()
		t.AddRow(d0(beta),
			d0(st.VariablesByRank[0]),
			d0(st.VariablesByRank[1]),
			d0(st.VariablesByRank[2]),
			d0(sumFrom(st.VariablesByRank, 3)),
			d0(st.TotalVariables()))
		totals = append(totals, float64(st.TotalVariables()))
	}
	if w := verifyShape(totals, false); w != "" {
		t.Note("%s", w)
	}
	t.Note("paper shape: variable counts drop as β grows")
	return t, nil
}

// Fig10 reproduces the dataset-size sweep (Figure 10): instantiated
// variables per rank for 25/50/75/100%% of the trajectories.
func Fig10(e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  fmt.Sprintf("Varying dataset size, %s", e.Cfg.Name),
		Header: []string{"fraction", "|V|=1", "|V|=2", "|V|=3", "|V|>=4", "total"},
	}
	var totals, high []float64
	for _, frac := range []float64{0.25, 0.5, 0.75, 1} {
		params := e.Params()
		h, err := e.Hybrid(params, frac)
		if err != nil {
			return nil, err
		}
		st := h.Stats()
		t.AddRow(pct(frac),
			d0(st.VariablesByRank[0]),
			d0(st.VariablesByRank[1]),
			d0(st.VariablesByRank[2]),
			d0(sumFrom(st.VariablesByRank, 3)),
			d0(st.TotalVariables()))
		totals = append(totals, float64(st.TotalVariables()))
		high = append(high, float64(sumFrom(st.VariablesByRank, 3)))
	}
	if w := verifyShape(totals, true); w != "" {
		t.Note("%s", w)
	}
	if w := verifyShape(high, true); w != "" {
		t.Note("high-rank %s", w)
	}
	t.Note("paper shape: more data → more variables, especially high-rank ones")
	return t, nil
}

// Fig12 reproduces the memory-usage analysis (Figure 12): storage of
// the instantiated variables vs dataset size.
func Fig12(e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  fmt.Sprintf("Memory usage of instantiated variables, %s", e.Cfg.Name),
		Header: []string{"fraction", "storage (MB)"},
	}
	var series []float64
	for _, frac := range []float64{0.25, 0.5, 0.75, 1} {
		params := e.Params()
		h, err := e.Hybrid(params, frac)
		if err != nil {
			return nil, err
		}
		mb := float64(h.Stats().StorageFloats) * 8 / (1 << 20)
		t.AddRow(pct(frac), f2(mb))
		series = append(series, mb)
	}
	if w := verifyShape(series, true); w != "" {
		t.Note("%s", w)
	}
	t.Note("paper shape: memory grows with data volume but remains main-memory scale")
	return t, nil
}

// entropyByRank averages variable entropies, bucketing ranks ≥ 3
// together.
func entropyByRank(h *core.HybridGraph) ([3]float64, [3]int) {
	var sums [3]float64
	var counts [3]int
	h.ForEachVariable(func(v *core.Variable) {
		r := v.Rank() - 1
		if r > 2 {
			r = 2
		}
		sums[r] += v.Entropy()
		counts[r]++
	})
	return sums, counts
}

func sumFrom(xs []int, from int) int {
	s := 0
	for i := from; i < len(xs); i++ {
		s += xs[i]
	}
	return s
}
