package stats

import (
	"math"
	"sort"

	"repro/internal/hist"
)

func sortFloats(xs []float64) { sort.Float64s(xs) }

// EntropyHistogram returns the differential entropy of a
// piecewise-uniform histogram: −Σ pr·log(pr/width) in nats.
func EntropyHistogram(h *hist.Histogram) float64 {
	var e float64
	for _, b := range h.Buckets() {
		if b.Pr <= 0 {
			continue
		}
		e -= b.Pr * math.Log(b.Pr/b.Width())
	}
	return e
}

// EntropyMulti returns the differential entropy of a multi-dimensional
// histogram: −Σ pr·log(pr/volume) in nats, where volume is the
// hyper-bucket's product of side lengths. This is the H(·) of
// Theorem 2 under the histogram representation.
func EntropyMulti(m *hist.Multi) float64 {
	var e float64
	// Sorted order: float accumulation is not associative, so an
	// arbitrary iteration order would make repeated entropy
	// computations differ at the bit level between runs (see
	// hist.Multi.Total). The columnar store keeps cells in exactly
	// this order, so the scan is direct.
	keys, probs := m.Cells()
	for i, k := range keys {
		pr := probs[i]
		if pr <= 0 {
			continue
		}
		vol := 1.0
		for d := 0; d < m.Dims(); d++ {
			lo, hi := m.BucketRange(d, int(k.Dim(d)))
			vol *= hi - lo
		}
		e -= pr * math.Log(pr/vol)
	}
	return e
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}
