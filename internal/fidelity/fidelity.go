package fidelity

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/stats"
)

// Sample is the evidence for one dense path: the cost of every
// traversal of Path arriving within Interval (any day), and the
// trajectory that made it, in the collection's occurrence order.
type Sample struct {
	core.DensePath
	Costs []float64
	Trajs []int64
}

// Collect gathers dp's traversals from data.
func Collect(data *gps.Collection, params core.Params, dp core.DensePath) Sample {
	costs, trajs := core.Traversals(data, dp.Path, params.Domain, func(arrival float64) bool {
		return params.IntervalOf(arrival) == dp.Interval
	})
	return Sample{DensePath: dp, Costs: costs, Trajs: trajs}
}

// HoldOut trains the model the Figure 13/14 protocol scores. For each
// query, its first β−1 supporters by trajectory ID stay in training
// and the rest are held out, so the full path can no longer be
// instantiated (the accuracy-optimal baseline "does not work") while
// its edges keep their data — the sparse regime the decomposition
// methods exist for. Truths are still taken from the full data.
func HoldOut(g *graph.Graph, data *gps.Collection, params core.Params, queries []Sample) (*core.HybridGraph, error) {
	hold := make(map[int64]bool)
	for _, q := range queries {
		ids := slices.Sorted(slices.Values(q.Trajs))
		for _, id := range ids[min(params.Beta-1, len(ids)):] {
			hold[id] = true
		}
	}
	return core.Build(g, data.Filter(func(m *gps.Matched) bool { return !hold[m.ID] }), params)
}

// Truth is a sample's ground truth on two rulers. Raw, the sample's
// own value lattice, is the ruler of record. Auto is the Auto
// histogram the paper's figures compare against; on a dense path it
// keeps one or two buckets, so it blurs the truth an estimate is
// judged by.
type Truth struct {
	Sample
	Raw  *hist.Raw
	Auto *hist.Histogram
}

// NewTruth builds s's truth. Fewer than β traversals is an error: the
// accuracy-optimal baseline is inapplicable there.
func NewTruth(s Sample, params core.Params) (*Truth, error) {
	if len(s.Costs) < params.Beta {
		return nil, fmt.Errorf("fidelity: only %d qualified trajectories on %v in interval %d (β = %d)",
			len(s.Costs), s.Path, s.Interval, params.Beta)
	}
	raw, err := hist.NewRaw(s.Costs, params.Resolution)
	if err != nil {
		return nil, err
	}
	auto, _, err := hist.AutoHistogram(s.Costs, params.Resolution, params.Auto)
	if err != nil {
		return nil, err
	}
	return &Truth{Sample: s, Raw: raw, Auto: auto}, nil
}

// Lattice returns the raw truth as a histogram of resolution-wide
// cells, for its mean and quantiles.
func (t *Truth) Lattice() *hist.Histogram {
	bs := make([]hist.Bucket, len(t.Raw.Entries))
	for i, e := range t.Raw.Entries {
		bs[i] = hist.Bucket{Lo: e.Value, Hi: e.Value + t.Raw.Resolution, Pr: e.Perc}
	}
	return hist.MustFromBuckets(bs)
}

// pitBins is the number of equal-width bins of the PIT histogram.
const pitBins = 10

// sliverWidth is the bucket width below which an answer bucket is a
// sliver: a density spike no trajectory cost can produce.
const sliverWidth = 1e-6

// Score measures one estimate against a truth. Scores of several
// estimates add, and a sum divides by its count for the mean.
type Score struct {
	// KL is KL(truth ‖ estimate) on the raw lattice, in nats;
	// KLAuto is the same against the Auto truth.
	KL, KLAuto float64
	// PIT bins the truth's mass by the estimate's CDF at each lattice
	// cell's midpoint. A calibrated estimate spreads it evenly; an
	// overconfident one piles it into the first and last bins.
	PIT [pitBins]float64
	// Factors counts the decomposition's factors, Fallbacks those that
	// are speed-limit point masses.
	Factors, Fallbacks int
	// Buckets counts the answer's buckets, Slivers those narrower than
	// sliverWidth.
	Buckets, Slivers int
}

// Score measures res against the truth.
func (t *Truth) Score(res *core.QueryResult) Score {
	s := Score{
		KL:      stats.KLRawVsHistogram(t.Raw, res.Dist),
		KLAuto:  stats.KLHistograms(t.Auto, res.Dist),
		Factors: len(res.Decomp.Vars),
		Buckets: res.Dist.NumBuckets(),
	}
	for _, e := range t.Raw.Entries {
		u := res.Dist.CDF(e.Value + t.Raw.Resolution/2)
		s.PIT[min(int(u*pitBins), pitBins-1)] += e.Perc
	}
	for _, v := range res.Decomp.Vars {
		if v.SpeedLimit {
			s.Fallbacks++
		}
	}
	for _, b := range res.Dist.Buckets() {
		if b.Width() < sliverWidth {
			s.Slivers++
		}
	}
	return s
}

// Add accumulates o into s.
func (s *Score) Add(o Score) {
	s.KL += o.KL
	s.KLAuto += o.KLAuto
	for i := range s.PIT {
		s.PIT[i] += o.PIT[i]
	}
	s.Factors += o.Factors
	s.Fallbacks += o.Fallbacks
	s.Buckets += o.Buckets
	s.Slivers += o.Slivers
}

// PITTails returns the share of the PIT mass in the first and last
// bins: 2/pitBins for a calibrated estimate, 1 for one that misses
// every observation.
func (s Score) PITTails() float64 {
	var total float64
	for _, m := range s.PIT {
		total += m
	}
	return (s.PIT[0] + s.PIT[pitBins-1]) / total
}

// FallbackShare returns the share of factors that are fallbacks.
func (s Score) FallbackShare() float64 { return float64(s.Fallbacks) / float64(s.Factors) }

// SliverShare returns the share of answer buckets that are slivers.
func (s Score) SliverShare() float64 { return float64(s.Slivers) / float64(s.Buckets) }
