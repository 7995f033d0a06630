package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Edge-case coverage for RemapDim/RemapTable/UnionBounds under the
// columnar layout, where remapping is a single linear pass emitting
// sorted cells and the identity remap is a pointer-preserving no-op.

// Identical bounds: the no-op fast path returns the receiver itself.
func TestRemapDimIdenticalBoundsNoOp(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2}, {0, 5, 10}})
	m.SetCell([]int{0, 1}, 0.25)
	m.SetCell([]int{1, 0}, 0.75)
	same := append([]float64(nil), m.Bounds(1)...)
	r, err := m.RemapDim(1, same)
	if err != nil {
		t.Fatal(err)
	}
	if r != m {
		t.Fatal("remap onto identical bounds should return the receiver (no-op fast path)")
	}
	// UnionBounds of equal sets short-circuits to the first operand.
	u := UnionBounds(m.Bounds(0), []float64{0, 1, 2})
	if len(u) != 3 || &u[0] != &m.Bounds(0)[0] {
		t.Fatal("UnionBounds of equal sets should return the first operand")
	}
}

// Single-bucket dims survive remapping, both as the remapped dimension
// (splitting the one bucket) and as a bystander dimension.
func TestRemapDimSingleBucketDims(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 10}, {0, 4}})
	m.SetCell([]int{0, 0}, 1)
	// Split the single bucket of dim 0 into three.
	r, err := m.RemapDim(0, []float64{0, 2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCells() != 3 {
		t.Fatalf("split of one cell into 3 sub-buckets gives %d cells", r.NumCells())
	}
	wantFracs := []float64{0.2, 0.3, 0.5}
	for i, w := range wantFracs {
		if got := r.Cell([]int{i, 0}); !almostEq(got, w, 1e-15) {
			t.Fatalf("cell %d = %v, want %v", i, got, w)
		}
	}
	// Extend the single-bucket dim without touching its support: cells
	// move index but keep their exact probability.
	r2, err := m.RemapDim(1, []float64{-2, 0, 4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Cell([]int{0, 1}); got != 1 {
		t.Fatalf("extension remap moved mass: cell = %v, want exactly 1", got)
	}
}

// A refinement followed by a marginal onto a single-bucket dimension
// funnels every cell into one: the degenerate coarse end of the
// Fig. 11 spectrum must still carry the exact total.
func TestRemapThenMarginalMergesAllCells(t *testing.T) {
	m := mustMulti(t, [][]float64{{0, 1, 2, 3}, {0, 7}})
	m.SetCell([]int{0, 0}, 0.125)
	m.SetCell([]int{1, 0}, 0.25)
	m.SetCell([]int{2, 0}, 0.625)
	r, err := m.RemapDim(0, []float64{0, 0.5, 1, 1.5, 2, 2.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCells() != 6 {
		t.Fatalf("refined multi has %d cells, want 6", r.NumCells())
	}
	onto, err := r.MarginalOnto([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if onto.NumCells() != 1 {
		t.Fatalf("marginal onto the single-bucket dim has %d cells, want 1", onto.NumCells())
	}
	if got := onto.Cell([]int{0}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("merged cell mass %v, want 1", got)
	}
}

// PROPERTY: an extension-only remap (no bucket is split) translates
// indices without rescaling, so the total mass is preserved
// bit-identically; a splitting remap preserves it to accumulation
// tolerance and is itself bit-deterministic across repeated runs.
func TestPropertyRemapMassPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := randomMulti(rnd)
		d := rnd.Intn(m.Dims())
		bd := m.Bounds(d)

		// Extension only: new boundaries strictly outside the support.
		ext := UnionBounds(bd, []float64{bd[0] - 3 - rnd.Float64(), bd[len(bd)-1] + 1 + rnd.Float64()})
		r, err := m.RemapDim(d, ext)
		if err != nil {
			return false
		}
		if math.Float64bits(r.Total()) != math.Float64bits(m.Total()) {
			return false // extension must not perturb a single bit
		}

		// Splitting remap: a cut strictly inside the support.
		cut := bd[0] + rnd.Float64()*(bd[len(bd)-1]-bd[0])
		union := UnionBounds(bd, []float64{cut})
		s1, err := m.RemapDim(d, union)
		if err != nil {
			return false
		}
		if !almostEq(s1.Total(), m.Total(), 1e-12) {
			return false
		}
		// Determinism: repeating the remap reproduces every cell bit.
		s2, err := m.RemapDim(d, union)
		if err != nil {
			return false
		}
		k1, p1 := s1.Cells()
		k2, p2 := s2.Cells()
		if len(k1) != len(k2) {
			return false
		}
		for i := range k1 {
			if k1[i] != k2[i] || math.Float64bits(p1[i]) != math.Float64bits(p2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fixedQuick(0, 23)); err != nil {
		t.Fatal(err)
	}
}

// NewRemapTable is a new table of RemapDim's, for the tests that apply
// one table to several histograms.
func NewRemapTable(old, newBounds []float64) (*RemapTable, error) {
	t := new(RemapTable)
	if err := t.build(old, newBounds); err != nil {
		return nil, err
	}
	return t, nil
}

// RemapTable reuse: one precomputed table applied to two histograms
// sharing the boundary set gives the same result as two independent
// RemapDim calls, and a table built for different boundaries is
// rejected.
func TestRemapTableReuseAndMismatch(t *testing.T) {
	a := mustMulti(t, [][]float64{{0, 1, 2}})
	a.SetCell([]int{0}, 0.5)
	a.SetCell([]int{1}, 0.5)
	b := mustMulti(t, [][]float64{{0, 1, 2}})
	b.SetCell([]int{1}, 1)

	tbl, err := NewRemapTable([]float64{0, 1, 2}, []float64{0, 0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.RemapDimTable(0, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RemapDimTable(0, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if ra.NumCells() != 3 || rb.NumCells() != 1 {
		t.Fatalf("reused table results: %d and %d cells, want 3 and 1", ra.NumCells(), rb.NumCells())
	}
	c := mustMulti(t, [][]float64{{0, 3, 9}})
	if _, err := c.RemapDimTable(0, tbl); err == nil {
		t.Fatal("table built for different boundaries must be rejected")
	}
	if _, err := NewRemapTable([]float64{0, 1, 2}, []float64{0, 2}); err == nil {
		t.Fatal("new grid missing an old boundary must be rejected")
	}
}
