package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of an ascending-sorted sample by the
// nearest-rank rule (the smallest value with at least q of the sample
// at or below it), so every reported percentile is a latency that was
// actually observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of the sample (mean of the two middle values
// for an even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// bestLap is the run's estimator for a per-lap timing metric: the
// fastest lap (max when higher is better, min otherwise). Host
// slow-downs on this machine class are episodic and only ever make a
// lap slower, so the best lap is the one least disturbed.
func bestLap(perLap []float64, higherBetter bool) float64 {
	if len(perLap) == 0 {
		return 0
	}
	best := perLap[0]
	for _, x := range perLap[1:] {
		if (higherBetter && x > best) || (!higherBetter && x < best) {
			best = x
		}
	}
	return best
}

// lapsNear counts the laps whose value is within frac of best.
func lapsNear(perLap []float64, best, frac float64) int {
	n := 0
	for _, x := range perLap {
		if math.Abs(x-best) <= frac*math.Abs(best) {
			n++
		}
	}
	return n
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4) — the spread the benchmark's
// acceptance check computes over repeated runs.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// rangeSpread is (max − min) / median.
func rangeSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return 0
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}
