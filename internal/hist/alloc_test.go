package hist

import (
	"math"
	"math/rand"
	"testing"
)

// Allocation regression tests for the columnar cell store: the hot
// read paths of the chain evaluator — sorted iteration, totals — must
// not allocate. The map-based predecessor
// allocated (and sorted) a key slice on every ForEachSorted visit;
// these tests pin the improvement so it cannot silently regress.

func allocFixtureMulti(tb testing.TB) *Multi {
	tb.Helper()
	rnd := rand.New(rand.NewSource(5))
	m, err := NewMulti([][]float64{
		{0, 10, 20, 40, 80, 160},
		{0, 5, 9, 33},
		{0, 1, 2, 3, 4},
	})
	if err != nil {
		tb.Fatal(err)
	}
	idx := make([]int, 3)
	for c := 0; c < 40; c++ {
		for d := range idx {
			idx[d] = rnd.Intn(m.NumBuckets(d))
		}
		m.SetCell(idx, 0.01+rnd.Float64())
	}
	if err := m.Normalize(); err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestForEachSortedZeroAllocs(t *testing.T) {
	m := allocFixtureMulti(t)
	var sink float64
	visit := func(_ CellKey, pr float64) { sink += pr }
	if n := testing.AllocsPerRun(100, func() { m.ForEachSorted(visit) }); n != 0 {
		t.Fatalf("ForEachSorted allocates %v times per run, want 0", n)
	}
	_ = sink
}

func TestTotalZeroAllocs(t *testing.T) {
	m := allocFixtureMulti(t)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink = m.Total() }); n != 0 {
		t.Fatalf("Total allocates %v times per run, want 0", n)
	}
	_ = sink
}

// Mutations must invalidate the SumHistogram cache: a stale sum would
// silently mis-answer after SetCell/Add/Normalize.
func TestSumHistogramCacheInvalidation(t *testing.T) {
	m := allocFixtureMulti(t)
	sum := func() *Histogram {
		t.Helper()
		h, err := m.SumHistogram(0)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	before := sum()
	if sum() != before {
		t.Fatal("a warm SumHistogram recomputed")
	}
	_, probs := m.Cells()
	m.SetCell([]int{4, 2, 3}, probs[len(probs)-1]+0.5)
	after := sum()
	if after == before || after.Mean() == before.Mean() {
		t.Fatalf("sum not recomputed after SetCell (mean still %v)", before.Mean())
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	if renorm := sum(); renorm == after || !almostEq(renorm.CDF(math.Inf(1)), 1, 1e-9) {
		t.Fatal("sum not recomputed after Normalize")
	}
}

// The Auto selection's allocations on a fixed 200-sample bimodal
// fixture (three candidate bucket counts over five folds): 78 with the
// shared sort and the per-fold incremental programs, 536 when every
// (bucket count, fold) pair rebuilt its raw distributions through a map
// and its DP tables row by row.
func TestAutoBucketCountAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rnd := rand.New(rand.NewSource(200))
	samples := make([]float64, 200)
	for i := range samples {
		if i%3 == 0 {
			samples[i] = 95 + rnd.NormFloat64()*6
		} else {
			samples[i] = 40 + rnd.NormFloat64()*4
		}
	}
	cfg := DefaultAutoConfig()
	res, err := AutoBucketCount(samples, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != 2 || len(res.Errors) != 3 {
		t.Fatalf("fixture drifted: chose %d after %d candidates, want 2 after 3", res.Chosen, len(res.Errors))
	}
	const budget = 80
	if n := testing.AllocsPerRun(50, func() { AutoBucketCount(samples, 1, cfg) }); n > budget {
		t.Fatalf("AutoBucketCount allocates %.0f times on the 200-sample fixture, budget %d", n, budget)
	}
}
