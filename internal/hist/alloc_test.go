package hist

import (
	"math/rand"
	"testing"
)

// Allocation regression tests for the columnar cell store: the hot
// read paths of the chain evaluator — sorted iteration, totals,
// marginals — must not allocate once warm. The map-based predecessor
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

func TestMarginalWarmZeroAllocs(t *testing.T) {
	m := allocFixtureMulti(t)
	for d := 0; d < m.Dims(); d++ {
		m.Marginal(d) // warm the per-dimension cache
	}
	var sink *Histogram
	if n := testing.AllocsPerRun(100, func() { sink = m.Marginal(1) }); n != 0 {
		t.Fatalf("warm Marginal allocates %v times per run, want 0", n)
	}
	_ = sink
}

// Mutations must invalidate the marginal cache: a stale marginal would
// silently mis-answer after SetCell/Add/Normalize.
func TestMarginalCacheInvalidation(t *testing.T) {
	m := allocFixtureMulti(t)
	before := m.Marginal(0).Mean()
	// Move all of bucket-0 mass (if any) far to the right.
	keys, probs := m.Cells()
	last := len(keys) - 1
	m.SetCell([]int{4, 2, 3}, probs[last]+0.5)
	after := m.Marginal(0)
	if after == nil || after.Mean() == before {
		t.Fatalf("marginal not recomputed after SetCell (mean still %v)", before)
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	renorm := m.Marginal(0)
	if renorm.Mean() == 0 {
		t.Fatal("marginal after Normalize is empty")
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
