package hist

import (
	"math"
	"testing"
)

// packCells packs API-form keys for NewMultiFromPackedCells.
func packCells(keys []CellKey) []PackedKey {
	out := make([]PackedKey, len(keys))
	for i, k := range keys {
		out[i] = PackKey(k)
	}
	return out
}

// Regression test for the Multi pool: a pooled Multi carrying a cached
// SumHistogram must not leak it into the next histogram built from the
// pool. PutMulti is responsible for clearing the cache, and this test
// pins that contract by recycling a Multi whose cache is warm and
// asserting the reborn histogram's sum reflects its own cells — by
// identity and by value.
func TestPutMultiPoolReuseSumHistogram(t *testing.T) {
	bounds3 := [][]float64{{0, 1, 2, 3}, {0, 10, 20}, {0, 5, 10}}
	keys3 := packCells([]CellKey{{0, 0, 1}, {1, 1, 0}, {2, 0, 1}})
	probs3 := []float64{0.25, 0.5, 0.25}

	bounds1 := [][]float64{{0, 1, 2, 3}}
	keys1 := packCells([]CellKey{{0}, {2}})
	probs1 := []float64{0.75, 0.25}

	for iter := 0; iter < 100; iter++ {
		m1, err := NewMultiFromPackedCells(bounds3, keys3, probs3)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the cache, then recycle. sync.Pool reuse is not
		// guaranteed on any single iteration, so the loop makes a hit
		// near-certain; each iteration's assertions are valid whether or
		// not the struct was actually reused.
		stale, err := m1.SumHistogram(0)
		if err != nil {
			t.Fatal(err)
		}
		PutMulti(m1)

		m2, err := NewMultiFromPackedCells(bounds1, keys1, probs1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m2.SumHistogram(0)
		if err != nil {
			t.Fatal(err)
		}
		if got == stale {
			t.Fatalf("iter %d: pooled Multi handed out the previous owner's sum", iter)
		}
		bs := got.Buckets()
		if len(bs) != 2 {
			t.Fatalf("iter %d: sum has %d buckets, want 2: %+v", iter, len(bs), bs)
		}
		if bs[0].Lo != 0 || bs[0].Hi != 1 || math.Abs(bs[0].Pr-0.75) > 1e-12 {
			t.Fatalf("iter %d: sum bucket 0 = %+v", iter, bs[0])
		}
		if bs[1].Lo != 2 || bs[1].Hi != 3 || math.Abs(bs[1].Pr-0.25) > 1e-12 {
			t.Fatalf("iter %d: sum bucket 1 = %+v", iter, bs[1])
		}
		PutMulti(m2)
	}
}

// A pooled Multi rebuilt with the same shape but different cells must
// serve the new cells' sum, not the cached one — the "same dims,
// different mass" variant of the stale-cache hazard.
func TestPutMultiPoolReuseSameShape(t *testing.T) {
	bounds := [][]float64{{0, 1, 2}, {0, 1, 2}}
	for iter := 0; iter < 100; iter++ {
		m1, err := NewMultiFromPackedCells(bounds,
			packCells([]CellKey{{0, 0}}), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m1.SumHistogram(0); err != nil || len(got.Buckets()) != 1 || got.Min() != 0 {
			t.Fatalf("iter %d: m1 sum = %v (%v)", iter, got, err)
		}
		PutMulti(m1)

		m2, err := NewMultiFromPackedCells(bounds,
			packCells([]CellKey{{1, 1}}), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m2.SumHistogram(0)
		if err != nil || len(got.Buckets()) != 1 || got.Min() != 2 || got.Max() != 4 {
			t.Fatalf("iter %d: m2 sum = %v (%v) (stale cache?)", iter, got, err)
		}
		PutMulti(m2)
	}
}
