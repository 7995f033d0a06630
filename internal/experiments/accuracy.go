package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/hist"
	"repro/internal/stats"
)

// methodsUnderTest is the Figure 13/14 estimator family.
var methodsUnderTest = []core.Method{core.MethodOD, core.MethodLB, core.MethodRD, core.MethodHP}

// mostIllustrative scores the candidates and returns the one with the
// largest KL(GT, LB) − KL(GT, OD) gap, with its truth and the held-out
// hybrid graph trained for it.
func mostIllustrative(e *Env, params core.Params, candidates []core.DensePath) (*fidelity.Truth, *core.HybridGraph, error) {
	var bestGT *fidelity.Truth
	var bestH *core.HybridGraph
	bestGap := math.Inf(-1)
	var firstErr error
	for _, dp := range candidates {
		gt, err := fidelity.NewTruth(fidelity.Collect(e.Data(), params, dp), params)
		if err != nil {
			continue
		}
		h, err := fidelity.HoldOut(e.G, e.Data(), params, []fidelity.Sample{gt.Sample})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		depart := departureFor(params, dp.Interval)
		od, err1 := h.CostDistribution(dp.Path, depart, core.QueryOptions{Method: core.MethodOD})
		lb, err2 := h.CostDistribution(dp.Path, depart, core.QueryOptions{Method: core.MethodLB})
		if err1 != nil || err2 != nil {
			continue
		}
		gap := gt.Score(lb).KL - gt.Score(od).KL
		if gap > bestGap {
			bestGap, bestGT, bestH = gap, gt, h
		}
	}
	if bestGT == nil {
		if firstErr == nil {
			firstErr = fmt.Errorf("fig13: no candidate with ground truth")
		}
		return nil, nil, firstErr
	}
	return bestGT, bestH, nil
}

// moderateSupport keeps query paths whose support is high enough for
// a ground truth but not so high that holding their trajectories out
// would drain the corridor's entire data (support in [2β, 8β]).
func moderateSupport(ds []core.DensePath, params core.Params, limit int) []core.DensePath {
	var out []core.DensePath
	for _, dp := range ds {
		if dp.Count <= 8*params.Beta {
			out = append(out, dp)
			if limit > 0 && len(out) == limit {
				break
			}
		}
	}
	if out == nil && len(ds) > 0 {
		out = ds // all are very dense; use them anyway
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
	}
	return out
}

// Fig13 reproduces the single-path shape comparison (Figure 13): the
// estimated distributions of OD, LB, HP and RD on one dense held-out
// path, against the ground truth.
func Fig13(e *Env) (*Table, error) {
	params := e.Params()
	candidates := moderateSupport(e.densePathsRelaxed(params, 5, 2*params.Beta, 0), params, 6)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("fig13: no dense 5-edge path")
	}
	// The paper presents "a concrete example": pick the candidate where
	// the dependence effect is most visible (largest LB-vs-OD KL gap).
	gt, h, err := mostIllustrative(e, params, candidates)
	if err != nil {
		return nil, err
	}
	depart := departureFor(params, gt.Interval)
	t := &Table{
		ID:     "fig13",
		Title:  fmt.Sprintf("Estimated distributions on one held-out path, %s (|P|=%d, support %d)", e.Cfg.Name, len(gt.Path), gt.Count),
		Header: []string{"method", "mean", "p10", "p50", "p90", "KL vs GT", "KL vs Auto GT", "PIT tails", "fallbacks", "slivers"},
	}
	row := func(name string, d *hist.Histogram, scores ...string) {
		t.AddRow(append([]string{name, f2(d.Mean()), f2(d.Quantile(0.1)), f2(d.Quantile(0.5)), f2(d.Quantile(0.9))}, scores...)...)
	}
	row("GT", gt.Lattice(), "0", "-", "-", "-", "-")
	row("Auto GT", gt.Auto, f3(stats.KLRawVsHistogram(gt.Raw, gt.Auto)), "0", "-", "-", "-")
	for _, m := range methodsUnderTest {
		res, err := h.CostDistribution(gt.Path, depart, core.QueryOptions{Method: m, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", m, err)
		}
		s := gt.Score(res)
		row(string(m), res.Dist, f3(s.KL), f3(s.KLAuto), pct(s.PITTails()),
			fmt.Sprintf("%d/%d", s.Fallbacks, s.Factors), fmt.Sprintf("%d/%d", s.Slivers, s.Buckets))
	}
	t.Note("KL vs GT is on the held-out traversals' raw value lattice; KL vs Auto GT scores against their Auto histogram (the blurred ruler)")
	t.Note("paper shape: OD tracks the ground truth; LB over-smooths (central limit); HP and RD fall between")
	return t, nil
}

// Fig14 reproduces the accuracy-with-ground-truth study (Figure 14):
// average KL(GT, method) over held-out dense paths per cardinality, on
// the raw ruler and the Auto ruler, with the PIT tails and the shares
// of fallback factors and sliver buckets.
func Fig14(e *Env) (*Table, error) {
	params := e.Params()
	t := &Table{
		ID:     "fig14",
		Title:  fmt.Sprintf("Accuracy vs ground truth, %s: averages over held-out paths", e.Cfg.Name),
		Header: []string{"|P|", "measure", "OD", "LB", "RD", "HP", "#paths"},
	}
	for _, card := range []int{3, 5, 7, 9} {
		dense := moderateSupport(e.densePaths(params, card, 2*params.Beta, 0), params, e.Cfg.PathsPerPoint)
		if len(dense) == 0 {
			continue
		}
		queries := make([]fidelity.Sample, len(dense))
		for i, dp := range dense {
			queries[i] = fidelity.Collect(e.Data(), params, dp)
		}
		h, err := fidelity.HoldOut(e.G, e.Data(), params, queries)
		if err != nil {
			return nil, err
		}
		sums := make(map[core.Method]*fidelity.Score)
		for _, m := range methodsUnderTest {
			sums[m] = new(fidelity.Score)
		}
		n := 0
		for _, q := range queries {
			gt, err := fidelity.NewTruth(q, params)
			if err != nil {
				continue
			}
			depart := departureFor(params, gt.Interval)
			scores := make(map[core.Method]fidelity.Score)
			for _, m := range methodsUnderTest {
				res, err := h.CostDistribution(gt.Path, depart, core.QueryOptions{Method: m, Seed: int64(n)})
				if err != nil {
					break
				}
				scores[m] = gt.Score(res)
			}
			if len(scores) < len(methodsUnderTest) {
				continue
			}
			for m, s := range scores {
				sums[m].Add(s)
			}
			n++
		}
		if n == 0 {
			continue
		}
		nf := float64(n)
		for _, row := range []struct {
			name string
			cell func(*fidelity.Score) string
		}{
			{"KL", func(s *fidelity.Score) string { return f3(s.KL / nf) }},
			{"KL vs Auto GT", func(s *fidelity.Score) string { return f3(s.KLAuto / nf) }},
			{"PIT tails", func(s *fidelity.Score) string { return pct(s.PITTails()) }},
			{"fallbacks", func(s *fidelity.Score) string { return pct(s.FallbackShare()) }},
			{"slivers", func(s *fidelity.Score) string { return pct(s.SliverShare()) }},
		} {
			cells := []string{d0(card), row.name}
			for _, m := range methodsUnderTest {
				cells = append(cells, row.cell(sums[m]))
			}
			t.AddRow(append(cells, d0(n))...)
		}
		if od, lb := sums[core.MethodOD].KL, sums[core.MethodLB].KL; od > lb {
			t.Note("WARNING: OD not better than LB at |P|=%d (KL %.3f vs %.3f)", card, od/nf, lb/nf)
		}
	}
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("fig14: no paths with ground truth")
	}
	t.Note("KL is on the held-out traversals' raw value lattice; KL vs Auto GT scores against their Auto histogram (the blurred ruler)")
	t.Note("paper shape: KL of LB grows quickly with |P|; OD grows slowly and stays lowest")
	return t, nil
}

// Fig15 reproduces the entropy comparison on long paths (Figure 15):
// average decomposition entropy H_DE per method for long random query
// paths with no ground truth.
func Fig15(e *Env) (*Table, error) {
	params := e.Params()
	h, err := e.Hybrid(params, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig15",
		Title:  fmt.Sprintf("Decomposition entropy H_DE on long paths, %s", e.Cfg.Name),
		Header: []string{"|P|", "OD", "HP", "RD", "LB", "#paths"},
	}
	depart := departureFor(params, params.IntervalOf(8*3600))
	for _, card := range []int{10, 20, 30, 40} {
		paths := e.randomPaths(card, e.Cfg.PathsPerPoint, int64(card))
		sums := make(map[core.Method]float64)
		n := 0
		for pi, p := range paths {
			ca, err := h.BuildCandidateArray(p, depart)
			if err != nil {
				continue
			}
			des := map[core.Method]*core.Decomposition{
				core.MethodOD: ca.CoarsestDecomposition(0),
				core.MethodHP: ca.PairDecomposition(),
				core.MethodLB: ca.UnitDecomposition(),
				core.MethodRD: ca.RandomDecomposition(newRand(int64(pi))),
			}
			ok := true
			vals := make(map[core.Method]float64)
			for m, de := range des {
				ent, err := h.DecompositionEntropy(de)
				if err != nil {
					ok = false
					break
				}
				vals[m] = ent
			}
			if !ok {
				continue
			}
			for m, v := range vals {
				sums[m] += v
			}
			n++
		}
		if n == 0 {
			continue
		}
		nf := float64(n)
		t.AddRow(d0(card), f2(sums[core.MethodOD]/nf), f2(sums[core.MethodHP]/nf),
			f2(sums[core.MethodRD]/nf), f2(sums[core.MethodLB]/nf), d0(n))
		if sums[core.MethodOD] > sums[core.MethodLB]+1e-9 {
			t.Note("WARNING: H(OD) > H(LB) at |P|=%d", card)
		}
	}
	t.Note("paper shape: OD lowest entropy (most informative), then RD/HP, LB highest")
	return t, nil
}

func newRand(seed int64) *randSource {
	return &randSource{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// randSource is a tiny splitmix-based rand.Rand replacement sufficient
// for RandomDecomposition's Intn calls, avoiding math/rand state
// sharing across goroutines in benchmarks.
type randSource struct{ state uint64 }

// Intn returns a pseudo-random int in [0, n).
func (r *randSource) Intn(n int) int {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}
