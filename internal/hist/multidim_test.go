package hist

import (
	"math"
	"math/rand"
	"testing"
)

func mustMulti(t testing.TB, bounds [][]float64) *Multi {
	t.Helper()
	m, err := NewMulti(bounds)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(nil); err == nil {
		t.Error("no dims should error")
	}
	if _, err := NewMulti([][]float64{{1}}); err == nil {
		t.Error("single boundary should error")
	}
	if _, err := NewMulti([][]float64{{2, 1}}); err == nil {
		t.Error("decreasing boundaries should error")
	}
	if _, err := NewMulti([][]float64{{1, 1}}); err == nil {
		t.Error("equal boundaries should error")
	}
	tooMany := make([][]float64, MaxDims+1)
	for i := range tooMany {
		tooMany[i] = []float64{0, 1}
	}
	if _, err := NewMulti(tooMany); err == nil {
		t.Error("too many dims should error")
	}
}

func TestMultiAddLocateNormalize(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 10, 20}, {0, 5}})
	if ok := m.Add([]float64{5, 2}, 1); !ok {
		t.Fatal("in-range add failed")
	}
	if ok := m.Add([]float64{15, 2}, 3); !ok {
		t.Fatal("in-range add failed")
	}
	if ok := m.Add([]float64{25, 2}, 1); ok {
		t.Fatal("out-of-range add succeeded")
	}
	if ok := m.Add([]float64{5, -1}, 1); ok {
		t.Fatal("below-range add succeeded")
	}
	// Top boundary value belongs to the last bucket.
	if ok := m.Add([]float64{20, 5}, 1); !ok {
		t.Fatal("top-boundary add failed")
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.Total(), 1, 1e-12) {
		t.Fatalf("total = %v", m.Total())
	}
	// cell(1,0) holds the weight-3 add at (15,2) plus the top-boundary
	// add at (20,5), which snaps into the last bucket on both dims.
	if got := m.Cell([]int{1, 0}); !almostEq(got, 4.0/5, 1e-12) {
		t.Fatalf("cell(1,0) = %v, want 0.8", got)
	}
}

func TestMultiNormalizeEmpty(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1}})
	if err := m.Normalize(); err == nil {
		t.Fatal("normalizing empty histogram should error")
	}
}

func TestMultiSetCellPanicsOutOfRange(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetCell([]int{5}, 0.5)
}

func TestMultiMarginal(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 10, 20}, {0, 5, 15}})
	m.SetCell([]int{0, 0}, 0.1)
	m.SetCell([]int{0, 1}, 0.2)
	m.SetCell([]int{1, 0}, 0.3)
	m.SetCell([]int{1, 1}, 0.4)
	h0 := m.Marginal(0)
	if !almostEq(h0.MassOn(0, 10), 0.3, 1e-12) || !almostEq(h0.MassOn(10, 20), 0.7, 1e-12) {
		t.Fatalf("marginal 0 = %v", h0)
	}
	h1 := m.Marginal(1)
	if !almostEq(h1.MassOn(0, 5), 0.4, 1e-12) || !almostEq(h1.MassOn(5, 15), 0.6, 1e-12) {
		t.Fatalf("marginal 1 = %v", h1)
	}
}

func TestMultiMarginalOnto(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2}, {0, 1}, {0, 1, 2, 3}})
	m.SetCell([]int{0, 0, 1}, 0.5)
	m.SetCell([]int{1, 0, 2}, 0.5)
	// Marginal over dims (2, 0) in that order.
	mm, err := m.MarginalOnto([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if mm.Dims() != 2 {
		t.Fatalf("dims = %d", mm.Dims())
	}
	if got := mm.Cell([]int{1, 0}); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("cell = %v", got)
	}
	if got := mm.Cell([]int{2, 1}); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("cell = %v", got)
	}
	if _, err := m.MarginalOnto([]int{7}); err == nil {
		t.Fatal("bad dim should error")
	}
}

func TestMultiRefineDim(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 10}, {0, 4}})
	m.SetCell([]int{0, 0}, 1)
	r, err := m.RemapDim(0, []float64{0, 2.5, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBuckets(0) != 3 {
		t.Fatalf("refined buckets = %d, want 3", r.NumBuckets(0))
	}
	if got := r.Cell([]int{0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Fatalf("cell [0,2.5) = %v, want 0.25", got)
	}
	if got := r.Cell([]int{1, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Fatalf("cell [2.5,5) = %v, want 0.25", got)
	}
	if got := r.Cell([]int{2, 0}); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("cell [5,10) = %v, want 0.5", got)
	}
	// Marginals must be preserved by refinement.
	if !almostEq(r.Marginal(1).Mean(), m.Marginal(1).Mean(), 1e-12) {
		t.Fatal("refinement changed the other dimension")
	}
	if _, err := m.RemapDim(9, []float64{0, 10}); err == nil {
		t.Fatal("bad dim should error")
	}
}

func TestMultiRefinePreservesSumHistogram(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	m := mustMulti(t, [][]float64{{0, 5, 12, 20}, {0, 8, 16}})
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m.SetCell([]int{i, j}, rnd.Float64()+0.05)
		}
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	before, err := m.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RemapDim(0, []float64{0, 3, 5, 9, 12, 15, 20})
	if err != nil {
		t.Fatal(err)
	}
	after, err := r.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	// Means agree exactly; the full distributions agree only up to the
	// uniform-within-bucket approximation, so compare CDFs loosely.
	if !almostEq(before.Mean(), after.Mean(), 1e-9) {
		t.Fatalf("refinement changed mean: %v vs %v", before.Mean(), after.Mean())
	}
	for _, x := range []float64{5, 10, 15, 20, 25, 30} {
		if math.Abs(before.CDF(x)-after.CDF(x)) > 0.15 {
			t.Fatalf("CDF(%v) moved too much: %v vs %v", x, before.CDF(x), after.CDF(x))
		}
	}
}

func TestNewMultiFromSamplesValidation(t *testing.T) {
	if _, err := NewMultiFromSamples(nil, defaultSamplesConfig()); err == nil {
		t.Error("no rows should error")
	}
	if _, err := NewMultiFromSamples([][]float64{{}}, defaultSamplesConfig()); err == nil {
		t.Error("zero-dim rows should error")
	}
	if _, err := NewMultiFromSamples([][]float64{{1, 2}, {1}}, defaultSamplesConfig()); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestNewMultiFromSamplesBasic(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	rows := make([][]float64, 500)
	for i := range rows {
		// Correlated pair: second dim follows first.
		a := math.Round(50 + rnd.NormFloat64()*5)
		b := math.Round(a + 20 + rnd.NormFloat64()*3)
		rows[i] = []float64{a, b}
	}
	m, err := NewMultiFromSamples(rows, defaultSamplesConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 2 {
		t.Fatalf("dims = %d", m.Dims())
	}
	if !almostEq(m.Total(), 1, 1e-9) {
		t.Fatalf("total = %v", m.Total())
	}
	// Marginal means should be near the generating means.
	if got := m.Marginal(0).Mean(); math.Abs(got-50) > 3 {
		t.Fatalf("marginal-0 mean %v, want ≈50", got)
	}
	if got := m.Marginal(1).Mean(); math.Abs(got-70) > 3 {
		t.Fatalf("marginal-1 mean %v, want ≈70", got)
	}
	// The sum distribution should center near 120.
	sum, err := m.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean()-120) > 4 {
		t.Fatalf("sum mean %v, want ≈120", sum.Mean())
	}
}

func TestMultiCapturesDependenceThatConvolutionMisses(t *testing.T) {
	// Anti-correlated regimes: when edge A is congested edge B is free
	// and vice versa, so X+Y is nearly constant while the marginals are
	// bimodal. The joint histogram's sum distribution must be much
	// tighter than the convolution of the marginals.
	rnd := rand.New(rand.NewSource(99))
	rows := make([][]float64, 800)
	for i := range rows {
		var a, b float64
		if i%2 == 0 {
			a = math.Round(40 + rnd.NormFloat64()*2)
			b = math.Round(120 + rnd.NormFloat64()*2)
		} else {
			a = math.Round(100 + rnd.NormFloat64()*2)
			b = math.Round(50 + rnd.NormFloat64()*2)
		}
		rows[i] = []float64{a, b}
	}
	m, err := NewMultiFromSamples(rows, defaultSamplesConfig())
	if err != nil {
		t.Fatal(err)
	}
	joint, err := m.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	conv := Convolve(m.Marginal(0), m.Marginal(1))
	if joint.Variance() >= conv.Variance()*0.5 {
		t.Fatalf("joint variance %v not much tighter than convolution %v",
			joint.Variance(), conv.Variance())
	}
	if math.Abs(joint.Mean()-conv.Mean()) > 2 {
		t.Fatalf("means should agree: %v vs %v", joint.Mean(), conv.Mean())
	}
}

func TestMultiStorageFloats(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2}, {0, 1}})
	m.SetCell([]int{0, 0}, 1)
	// Boundaries plus, per occupied cell, the columnar key (MaxDims
	// uint16s = 3 float-equivalents) and one probability.
	want := (3 + 2) + (3+1)*1
	if got := m.StorageFloats(); got != want {
		t.Fatalf("StorageFloats = %d, want %d", got, want)
	}
}

func TestMultiForEach(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2}})
	m.SetCell([]int{0}, 0.25)
	m.SetCell([]int{1}, 0.75)
	var total float64
	count := 0
	m.ForEachSorted(func(k CellKey, pr float64) {
		total += pr
		count++
	})
	if count != 2 || !almostEq(total, 1, 1e-12) {
		t.Fatalf("ForEach visited %d cells totalling %v", count, total)
	}
	// SetCell to zero removes the cell.
	m.SetCell([]int{0}, 0)
	if m.NumCells() != 1 {
		t.Fatalf("cells = %d after zeroing", m.NumCells())
	}
}

func TestSumHistogramCompression(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 3, 6, 9, 12}})
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			m.SetCell([]int{i, j}, rnd.Float64()+0.01)
		}
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	full, err := m.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := m.SumHistogram(6)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumBuckets() > 6 {
		t.Fatalf("compressed buckets = %d", small.NumBuckets())
	}
	// Compression preserves mass exactly and the mean approximately
	// (merging unequal-density buckets shifts centroids slightly).
	if !almostEq(small.CDF(math.Inf(1)), 1, 1e-9) {
		t.Fatal("compression lost mass")
	}
	if math.Abs(full.Mean()-small.Mean()) > 0.05*full.Mean() {
		t.Fatalf("compression moved mean too far: %v vs %v", full.Mean(), small.Mean())
	}
}

func TestSumHistogramEmpty(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1}})
	if _, err := m.SumHistogram(0); err == nil {
		t.Fatal("empty multi should error")
	}
}

func TestRemapDim(t *testing.T) {
	m := mustMulti(t, [][]float64{{10, 20, 30}})
	m.SetCell([]int{0}, 0.4)
	m.SetCell([]int{1}, 0.6)
	// Extend support on both sides and split the first bucket.
	union := UnionBounds([]float64{10, 20, 30}, []float64{0, 15, 40})
	r, err := m.RemapDim(0, union)
	if err != nil {
		t.Fatal(err)
	}
	// New grid: 0,10,15,20,30,40 → cells [0,10)=0, [10,15)=0.2,
	// [15,20)=0.2, [20,30)=0.6, [30,40)=0.
	if got := r.Cell([]int{0}); got != 0 {
		t.Fatalf("[0,10) = %v", got)
	}
	if got := r.Cell([]int{1}); !almostEq(got, 0.2, 1e-12) {
		t.Fatalf("[10,15) = %v", got)
	}
	if got := r.Cell([]int{3}); !almostEq(got, 0.6, 1e-12) {
		t.Fatalf("[20,30) = %v", got)
	}
	if !almostEq(r.Total(), 1, 1e-12) {
		t.Fatal("remap lost mass")
	}
	if !almostEq(r.Marginal(0).Mean(), m.Marginal(0).Mean(), 1e-9) {
		t.Fatal("remap moved the mean")
	}
	// Missing old boundary must be rejected.
	if _, err := m.RemapDim(0, []float64{0, 12, 40}); err == nil {
		t.Fatal("grid missing old boundaries accepted")
	}
	if _, err := m.RemapDim(5, union); err == nil {
		t.Fatal("bad dim accepted")
	}
}

func TestUnionBounds(t *testing.T) {
	got := UnionBounds([]float64{1, 3, 5}, []float64{0, 3, 7})
	want := []float64{0, 1, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("UnionBounds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnionBounds = %v, want %v", got, want)
		}
	}
	if got := UnionBounds(nil, []float64{1, 2}); len(got) != 2 {
		t.Fatalf("UnionBounds(nil, x) = %v", got)
	}
}
