package pathcost

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// w1 is the Wasserstein-1 (earth mover's) distance between two
// histograms under uniform-within-bucket mass: ∫|F_a − F_b| dx, exact,
// since both CDFs are linear between the union of their boundaries.
func w1(a, b *Histogram) float64 {
	var xs []float64
	for _, h := range []*Histogram{a, b} {
		for _, bk := range h.Buckets() {
			xs = append(xs, bk.Lo, bk.Hi)
		}
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)
	var sum float64
	for i := 1; i < len(xs); i++ {
		lo, hi := xs[i-1], xs[i]
		d0, d1 := a.CDF(lo)-b.CDF(lo), a.CDF(hi)-b.CDF(hi)
		if (d0 >= 0) == (d1 >= 0) {
			sum += (math.Abs(d0) + math.Abs(d1)) / 2 * (hi - lo)
		} else { // the difference crosses zero inside
			sum += (d0*d0 + d1*d1) / (2 * (math.Abs(d0) + math.Abs(d1))) * (hi - lo)
		}
	}
	return sum
}

// TestQueryCacheIntervalApproximation measures what keying the query
// cache by departure α-interval costs. Eq. 3's chain is seeded with the
// exact departure [t, t], so two departures in one interval can have
// different answers, and a cache warmed at one serves it for the other.
// On the benchmark's city (the test preset, 8000 trips, seed 1), 300
// random paths of 5–34 edges are answered under OD at 08:00, 12:00 and
// 17:00 and 1799 s later, in the same interval; the test pins how many
// of the 900 pairs differ and by how much. docs/API.md ("Caching
// semantics") quotes these numbers.
func TestQueryCacheIntervalApproximation(t *testing.T) {
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	var paths []Path
	for len(paths) < 300 {
		p, err := sys.RandomQueryPath(5+rnd.Intn(30), rnd.Intn)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	const late = 1799
	pairs := 0
	var dMean, dRel []float64 // over the pairs that differ
	var maxW1 float64
	for _, p := range paths {
		for _, at := range []float64{8 * 3600, 12 * 3600, 17 * 3600} {
			if sys.Params.IntervalOf(at) != sys.Params.IntervalOf(at+late) {
				t.Fatalf("%v and %v s later fall in different intervals", at, late)
			}
			early, err1 := sys.PathDistribution(p, at, OD)
			exact, err2 := sys.PathDistribution(p, at+late, OD)
			if err1 != nil || err2 != nil {
				continue
			}
			pairs++
			if slices.Equal(early.Dist.Buckets(), exact.Dist.Buckets()) {
				continue
			}
			d := math.Abs(early.Summary.Mean - exact.Summary.Mean)
			dMean = append(dMean, d)
			dRel = append(dRel, d/exact.Summary.Mean)
			maxW1 = max(maxW1, w1(early.Dist, exact.Dist))
		}
	}
	slices.Sort(dMean)
	slices.Sort(dRel)
	differ := len(dMean)
	if pairs != 900 || differ == 0 {
		t.Fatalf("%d of %d pairs differ", differ, pairs)
	}
	med, p90, top := dMean[differ/2], dMean[differ*9/10], dMean[differ-1]
	t.Logf("%d of %d same-interval pairs differ; over those, |Δmean| median %.3f s (%.1f %%), p90 %.3f s (%.1f %%), max %.3f s (%.1f %%); max W1 %.3f s",
		differ, pairs, med, 100*dRel[differ/2], p90, 100*dRel[differ*9/10], top, 100*dRel[differ-1], maxW1)
	near := func(got, want float64) bool { return math.Abs(got-want) < 5e-4 }
	if differ != 407 || !near(med, 4.649) || !near(p90, 22.651) || !near(top, 87.372) || !near(maxW1, 87.401) {
		t.Errorf("measured %d differing pairs, |Δmean| median %.3f, p90 %.3f, max %.3f, max W1 %.3f; want 407, 4.649, 22.651, 87.372, 87.401",
			differ, med, p90, top, maxW1)
	}

	// One pair as the server sees it: a cache warmed at 08:00:00
	// serves the 08:00:00 answer at 08:29:59.
	p := Path{34, 36, 38, 447, 21, 19, 17, 15, 376, 377}
	exact, err := sys.PathDistribution(p, 8*3600+late, OD)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableQueryCache(16)
	warm, err := sys.PathDistribution(p, 8*3600, OD)
	if err != nil {
		t.Fatal(err)
	}
	served, err := sys.PathDistribution(p, 8*3600+late, OD)
	if err != nil {
		t.Fatal(err)
	}
	if served != warm {
		t.Fatal("the cache did not serve the 08:00:00 answer at 08:29:59")
	}
	if !near(exact.Summary.Mean, 104.199) || !near(served.Summary.Mean, 102.897) {
		t.Errorf("at 08:29:59 the path's mean is %.3f s uncached and %.3f s served from the cache, want 104.199 and 102.897",
			exact.Summary.Mean, served.Summary.Mean)
	}
}
