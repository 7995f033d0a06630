package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/stats"
)

// Method selects a path-cost estimation strategy (Section 5.2.2).
type Method string

// The estimator family of the empirical study.
const (
	// MethodOD uses the optimal (coarsest) decomposition — the paper's
	// proposal.
	MethodOD Method = "OD"
	// MethodRD uses a randomly chosen decomposition.
	MethodRD Method = "RD"
	// MethodHP uses pairwise joints only (Hua & Pei [10]).
	MethodHP Method = "HP"
	// MethodLB is the legacy baseline: independent edge convolution
	// with progressively updated arrival intervals (Section 2.3, [22]).
	MethodLB Method = "LB"
)

// QueryOptions tunes one cost-distribution query.
type QueryOptions struct {
	Method Method
	// RankCap caps variable ranks for OD (the OD-x variants of
	// Figure 16); 0 means uncapped.
	RankCap int
	// Seed drives MethodRD's random decomposition choice.
	Seed int64
}

// WorkloadQuery is one observation of a query log (or one synthetic
// stand-in): a path queried at a departure time.
type WorkloadQuery struct {
	Path   graph.Path
	Depart float64
}

// Timing is the Figure 17 breakdown of one query: OI (identify the
// optimal decomposition), JC (compute the joint distribution), MC
// (derive the marginal cost distribution).
type Timing struct {
	OI, JC, MC time.Duration
}

// Total returns OI+JC+MC.
func (t Timing) Total() time.Duration { return t.OI + t.JC + t.MC }

// QueryResult is the outcome of a cost-distribution query.
type QueryResult struct {
	// Dist is the travel-cost distribution of the query path at the
	// departure time — the paper's problem output.
	Dist *hist.Histogram
	// Summary is Dist's mean and deciles, computed once with it: a
	// cached result answers every hit from it.
	Summary hist.Summary
	// Decomp is the decomposition that produced it.
	Decomp *Decomposition
	// Stats and Timing instrument the evaluation.
	Stats  EvalStats
	Timing Timing

	// decimals is the digit record of Summary and Dist, built on the
	// answer's first exact query-cache hit (FillDecimals) and read by
	// every hit after it (Decimals).
	decimals hist.DecimalSlot
}

// Decimals returns the result's digit record, nil until FillDecimals
// has built it.
func (r *QueryResult) Decimals() hist.Decimals { return r.decimals.Load() }

// FillDecimals builds the result's digit record if it has none yet.
// Concurrent callers build at most one record each and keep the first
// published (hist.DecimalSlot.Fill).
func (r *QueryResult) FillDecimals() { r.decimals.Fill(r.Dist, r.Summary) }

// CostDistribution estimates the travel cost distribution of query
// path p departing at absolute time t (Section 4). The zero options
// value runs the paper's OD method.
func (h *HybridGraph) CostDistribution(p graph.Path, t float64, opt QueryOptions) (*QueryResult, error) {
	return h.CostDistributionCtx(nil, nil, p, t, opt, nil)
}

// CostDistributionCtx is the one cost-distribution path: bounded by
// ctx and evaluated through the memo m. With a memo (and a method
// that has a chain evaluator — RD bypasses it) the path's state
// resumes from the deepest stored prefix (pathState); the
// result is byte-identical to the one-shot evaluation below, because
// the chain evaluator applies exactly the operations Evaluate applies
// and the stored states it resumes from were produced by those same
// operations. Timing then reflects only work this call did: a deep
// prefix hit reports a near-zero JC, which is the point.
//
// de, when non-nil, is the decomposition Decompose chose for the same
// (p, t, opt) on h: evaluation takes it instead of choosing again, and
// what it keeps (the result's Decomp, the memo's states) holds a copy,
// so the caller may reuse de once the call returns. A nil de is chosen
// here.
//
// The deadline is checked before each factor multiply (each edge
// derivation on the reuse path) and ctx's error returned once it
// expires. ctx travels as a parameter, never inside QueryOptions or
// any cached state. nil ctx means unbounded; nil m means no reuse.
func (h *HybridGraph) CostDistributionCtx(ctx context.Context, m *ConvMemo, p graph.Path, t float64, opt QueryOptions, de *Decomposition) (*QueryResult, error) {
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	if m.active(opt.Method) {
		t0 := time.Now()
		st, err := h.pathState(ctx, m, p, t, opt, de)
		if err != nil {
			return nil, err
		}
		res, err := h.stateResult(st)
		if err != nil {
			return nil, err
		}
		res.Timing = Timing{JC: time.Since(t0)}
		return res, nil
	}
	t0 := time.Now()
	if de != nil {
		de = de.clone()
	} else {
		var err error
		if de, _, err = h.decomposeFrom(p, TimeInterval{Lo: t, Hi: t}, opt, nil); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	oi := t1.Sub(t0)

	dist, stats, mcStart, err := h.evaluateMode(ctx, de, p)
	if err != nil {
		return nil, err
	}
	// One end-of-evaluation clock read settles both JC and MC (see
	// evaluateMode).
	end := time.Now()
	evalDur := end.Sub(t1)
	stats.MCDur = end.Sub(mcStart)
	jc := evalDur - stats.MCDur
	if jc < 0 {
		jc = 0
	}
	return &QueryResult{
		Dist:    dist,
		Summary: dist.Summary(),
		Decomp:  de,
		Stats:   stats,
		Timing:  Timing{OI: oi, JC: jc, MC: stats.MCDur},
	}, nil
}

// DecompositionEntropy computes H_DE(C_P) of Theorem 2 for the
// decomposition: Σ H(C_{P_i}) − Σ H(C_{P_i ∩ P_{i−1}}), the entropy of
// the estimated joint. Lower is a more informative (more accurate)
// estimate; Figure 15 compares methods by this quantity.
func (h *HybridGraph) DecompositionEntropy(de *Decomposition) (float64, error) {
	var sum float64
	for i, v := range de.Vars {
		sum += variableEntropy(v)
		if i == 0 {
			continue
		}
		prevEnd := de.Pos[i-1] + de.Vars[i-1].Rank()
		ovLen := prevEnd - de.Pos[i]
		if ovLen <= 0 {
			continue
		}
		fm, err := asMulti(v)
		if err != nil {
			return 0, err
		}
		ovIdx := make([]int, ovLen)
		for d := range ovIdx {
			ovIdx[d] = d
		}
		marg, err := fm.MarginalOnto(ovIdx)
		if err != nil {
			return 0, err
		}
		sum -= multiEntropy(marg)
	}
	return sum, nil
}

// Entropy returns the differential entropy of the variable's
// distribution in nats (Figure 8(b) reports these per rank).
func (v *Variable) Entropy() float64 { return variableEntropy(v) }

// variableEntropy returns the differential entropy of the variable's
// distribution.
func variableEntropy(v *Variable) float64 {
	if v.Hist != nil {
		return histEntropy(v.Hist)
	}
	return multiEntropy(v.Joint)
}

// histEntropy and multiEntropy delegate to the stats package — one
// implementation of the Theorem 2 H(·), one place for its sorted-order
// accumulation invariant.
func histEntropy(hg *hist.Histogram) float64 { return stats.EntropyHistogram(hg) }

func multiEntropy(m *hist.Multi) float64 { return stats.EntropyMulti(m) }

// GroundTruth implements the accuracy-optimal baseline of Section 2.2:
// the distribution of total path costs over the qualified trajectories
// (those that occurred on p within the departure-time threshold of t).
// It returns the distribution and the number of qualified trajectories;
// fewer than β qualified trajectories is an error (data sparseness —
// the baseline is inapplicable).
func GroundTruth(data *gps.Collection, p graph.Path, t float64, params Params) (*hist.Histogram, int, error) {
	samples, _ := Traversals(data, p, params.Domain, func(arrival float64) bool {
		return todDistance(arrival, t) <= params.GTThresholdS
	})
	if len(samples) < params.Beta {
		return nil, len(samples), fmt.Errorf(
			"core: only %d qualified trajectories on %v (β = %d): accuracy-optimal baseline inapplicable",
			len(samples), p, params.Beta)
	}
	hg, _, err := hist.AutoHistogram(samples, params.Resolution, params.Auto)
	if err != nil {
		return nil, len(samples), err
	}
	return hg, len(samples), nil
}

// Traversals returns the cost in domain d, and the trajectory ID, of
// every traversal of p whose arrival at p's first edge keep accepts,
// in the collection's occurrence order. It is the one sample scan
// behind every ground truth: GroundTruth's departure-time threshold
// here, the α-interval truths and the held-out split of the accuracy
// experiments (internal/fidelity).
func Traversals(data *gps.Collection, p graph.Path, d CostDomain, keep func(arrival float64) bool) (costs []float64, trajs []int64) {
	for _, oc := range data.OccurrencesOfPath(p) {
		m := data.Traj(oc.Traj)
		if keep(m.ArrivalAt(oc.Pos)) {
			costs = append(costs, domainCost(m, oc.Pos, len(p), d))
			trajs = append(trajs, m.ID)
		}
	}
	return costs, trajs
}

// DensePath is a query-path candidate backed by many trajectories.
type DensePath struct {
	Path     graph.Path
	Interval int // α-interval index of the arrivals
	Count    int // trajectories traversing Path in Interval
}

// DensePaths scans data for sub-paths of the given cardinality with at
// least minCount traversals arriving within one α-interval — the
// workload selector behind the paper's accuracy experiments (Figures 4,
// 13, 14). The order is total: most traversals first, then by path key,
// then by interval, so every call answers in the same order.
func DensePaths(data *gps.Collection, params Params, cardinality, minCount int) []DensePath {
	type key struct {
		pk string
		iv int
	}
	type entry struct {
		pk string
		DensePath
	}
	found := make(map[key]*entry)
	for i := 0; i < data.Len(); i++ {
		m := data.Traj(i)
		for pos := 0; pos+cardinality <= len(m.Path); pos++ {
			sub := m.Path[pos : pos+cardinality]
			k := key{pk: sub.Key(), iv: params.IntervalOf(m.ArrivalAt(pos))}
			e := found[k]
			if e == nil {
				e = &entry{pk: k.pk, DensePath: DensePath{Path: sub.Clone(), Interval: k.iv}}
				found[k] = e
			}
			e.Count++
		}
	}
	var dense []*entry
	for _, e := range found {
		if e.Count >= minCount {
			dense = append(dense, e)
		}
	}
	slices.SortFunc(dense, func(a, b *entry) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.pk, b.pk), cmp.Compare(a.Interval, b.Interval))
	})
	out := make([]DensePath, len(dense))
	for i, e := range dense {
		out[i] = e.DensePath
	}
	return out
}

// domainCost sums the configured-domain costs of a trajectory sub-path.
func domainCost(m *gps.Matched, pos, n int, d CostDomain) float64 {
	if d == DomainEmissions {
		var s float64
		for j := pos; j < pos+n; j++ {
			s += m.Emissions[j]
		}
		return s
	}
	return m.CostOfSubPath(pos, n)
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// todDistance returns the circular time-of-day distance between two
// absolute times: trajectories from different days qualify when their
// clock times are close (the paper's fleets span months, so qualified
// trajectories necessarily come from many days).
func todDistance(a, b float64) float64 {
	d := absF(gps.SecondsOfDay(a) - gps.SecondsOfDay(b))
	if d > gps.SecondsPerDay/2 {
		d = gps.SecondsPerDay - d
	}
	return d
}
