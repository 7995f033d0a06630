package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mergeDeltaRef is the rebuild-from-scratch oracle for MergeDelta: a
// naive map-based merge performing the same per-cell arithmetic
// (old×scale, then +mass), materialized through the ordinary SetCell
// path instead of the merge-join.
func mergeDeltaRef(t *testing.T, m *Multi, d *Delta, scale float64) *Multi {
	t.Helper()
	cells := map[CellKey]float64{}
	m.ForEachSorted(func(key CellKey, p float64) {
		cells[key] = p * scale
	})
	d.ForEachSealed(func(key CellKey, w float64) {
		cells[key] += w
	})
	bounds := make([][]float64, m.Dims())
	for dd := 0; dd < m.Dims(); dd++ {
		bounds[dd] = m.Bounds(dd)
	}
	out, err := NewMulti(bounds)
	if err != nil {
		t.Fatalf("oracle NewMulti: %v", err)
	}
	idx := make([]int, m.Dims())
	for key, p := range cells {
		for dd := range idx {
			idx[dd] = int(key[dd])
		}
		out.SetCell(idx, p)
	}
	return out
}

// randomDelta builds a delta whose keys lie inside m's grid, added in
// random order with some duplicate keys.
func randomDelta(rnd *rand.Rand, m *Multi) *Delta {
	d := NewDelta()
	n := rnd.Intn(12)
	for i := 0; i < n; i++ {
		var key CellKey
		for dd := 0; dd < m.Dims(); dd++ {
			key[dd] = uint16(rnd.Intn(m.NumBuckets(dd)))
		}
		d.Add(key, float64(1+rnd.Intn(5)))
	}
	return d
}

func sameCells(a, b *Multi) bool {
	if a.NumCells() != b.NumCells() {
		return false
	}
	ok := true
	i := 0
	bk := make([]CellKey, 0, b.NumCells())
	bp := make([]float64, 0, b.NumCells())
	b.ForEachSorted(func(key CellKey, p float64) {
		bk = append(bk, key)
		bp = append(bp, p)
	})
	a.ForEachSorted(func(key CellKey, p float64) {
		if i >= len(bk) || key != bk[i] || math.Float64bits(p) != math.Float64bits(bp[i]) {
			ok = false
		}
		i++
	})
	return ok
}

// PROPERTY: MergeDelta agrees byte-for-byte with the map-based oracle
// for random histograms, deltas and decay scales.
func TestPropertyMergeDeltaMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := randomMulti(rnd)
		d := randomDelta(rnd, m)
		scale := []float64{0, 0.25, 1, 3.5}[rnd.Intn(4)]
		got, err := m.MergeDelta(d, scale)
		if err != nil {
			return false
		}
		defer PutMulti(got)
		want := mergeDeltaRef(t, m, d, scale)
		return sameCells(got, want)
	}
	if err := quick.Check(f, fixedQuick(200, 11)); err != nil {
		t.Fatal(err)
	}
}

// MergeDelta with an empty delta and scale 1 must reproduce the
// receiver's cells exactly (identity).
func TestMergeDeltaIdentity(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	m := randomMulti(rnd)
	got, err := m.MergeDelta(NewDelta(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer PutMulti(got)
	if !sameCells(got, m) {
		t.Fatal("identity merge changed cells")
	}
}

// Adding the same multiset of (key, mass) pairs in different orders of
// distinct keys must seal to identical cells (IEEE addition of two
// values per key is commutative).
func TestDeltaOrderIndependentForDistinctKeys(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	m := randomMulti(rnd)
	keys := make([]CellKey, 0, 8)
	seen := map[CellKey]bool{}
	for len(keys) < 5 {
		var key CellKey
		for dd := 0; dd < m.Dims(); dd++ {
			key[dd] = uint16(rnd.Intn(m.NumBuckets(dd)))
		}
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	fwd, rev := NewDelta(), NewDelta()
	for i, k := range keys {
		fwd.Add(k, float64(i+1))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev.Add(keys[i], float64(i+1))
	}
	a, err := m.MergeDelta(fwd, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.MergeDelta(rev, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer PutMulti(a)
	defer PutMulti(b)
	if !sameCells(a, b) {
		t.Fatal("merge result depends on Add order for distinct keys")
	}
}

// Mass conservation: unnormalized total of the merged histogram equals
// scale×(old total) + delta mass, up to float accumulation error.
func TestMergeDeltaMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := randomMulti(rnd)
		d := randomDelta(rnd, m)
		scale := 0.1 + rnd.Float64()*5
		var deltaMass float64
		d.ForEachSealed(func(_ CellKey, w float64) { deltaMass += w })
		got, err := m.MergeDelta(d, scale)
		if err != nil {
			return false
		}
		defer PutMulti(got)
		want := scale*m.Total() + deltaMass
		return math.Abs(got.Total()-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, fixedQuick(200, 12)); err != nil {
		t.Fatal(err)
	}
}

// Out-of-grid delta keys must be rejected, not silently dropped.
func TestMergeDeltaRejectsOutOfGrid(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	m := randomMulti(rnd)
	d := NewDelta()
	var key CellKey
	key[0] = uint16(m.NumBuckets(0)) // one past the end
	d.Add(key, 1)
	if _, err := m.MergeDelta(d, 1); err == nil {
		t.Fatal("expected out-of-grid error")
	}
	if _, err := m.MergeDelta(NewDelta(), -1); err == nil {
		t.Fatal("expected negative-scale error")
	}
}

// BinClamped: in-range points land in the same cell locate would pick;
// out-of-range points clamp to the boundary buckets.
func TestBinClamped(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	m := randomMulti(rnd)
	lo := make([]float64, m.Dims())
	hi := make([]float64, m.Dims())
	mid := make([]float64, m.Dims())
	for dd := 0; dd < m.Dims(); dd++ {
		bd := m.Bounds(dd)
		lo[dd] = bd[0] - 100
		hi[dd] = bd[len(bd)-1] + 100
		mid[dd] = (bd[0] + bd[1]) / 2
	}
	kLo, err := m.BinClamped(lo)
	if err != nil {
		t.Fatal(err)
	}
	kHi, err := m.BinClamped(hi)
	if err != nil {
		t.Fatal(err)
	}
	kMid, err := m.BinClamped(mid)
	if err != nil {
		t.Fatal(err)
	}
	for dd := 0; dd < m.Dims(); dd++ {
		if kLo[dd] != 0 {
			t.Fatalf("dim %d: below-range point binned to %d, want 0", dd, kLo[dd])
		}
		if int(kHi[dd]) != m.NumBuckets(dd)-1 {
			t.Fatalf("dim %d: above-range point binned to %d, want %d", dd, kHi[dd], m.NumBuckets(dd)-1)
		}
		if kMid[dd] != 0 {
			t.Fatalf("dim %d: first-bucket midpoint binned to %d, want 0", dd, kMid[dd])
		}
	}
	if _, err := m.BinClamped(mid[:1]); err == nil && m.Dims() > 1 {
		t.Fatal("expected dim-mismatch error")
	}
}

// mergeCountsRef is the 1-D oracle: scale old probabilities, count
// samples into buckets by linear scan, renormalize via FromBuckets.
func mergeCountsRef(t *testing.T, h *Histogram, samples []float64, w float64) *Histogram {
	t.Helper()
	bs := make([]Bucket, h.NumBuckets())
	copy(bs, h.Buckets())
	for i := range bs {
		bs[i].Pr *= w
	}
	for _, v := range samples {
		placed := false
		for i := range bs {
			if v < bs[i].Hi {
				bs[i].Pr++
				placed = true
				break
			}
		}
		if !placed {
			bs[len(bs)-1].Pr++
		}
	}
	out, err := FromBuckets(bs)
	if err != nil {
		t.Fatalf("oracle FromBuckets: %v", err)
	}
	return out
}

// PROPERTY: MergeCounts agrees byte-for-byte with the scan oracle.
func TestPropertyMergeCountsMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		h := randomHistogram(rnd)
		n := 1 + rnd.Intn(20)
		samples := make([]float64, n)
		span := h.Max() - h.Min()
		for i := range samples {
			samples[i] = h.Min() - span/2 + rnd.Float64()*span*2
		}
		w := []float64{0, 0.5, 1, 17.25}[rnd.Intn(4)]
		got, err := h.MergeCounts(samples, w)
		if err != nil {
			return false
		}
		want := mergeCountsRef(t, h, samples, w)
		if got.NumBuckets() != want.NumBuckets() {
			return false
		}
		gb, wb := got.Buckets(), want.Buckets()
		for i := range gb {
			if gb[i] != wb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fixedQuick(200, 13)); err != nil {
		t.Fatal(err)
	}
}

// MergeCounts must keep the frozen grid: bucket boundaries are those
// of the receiver regardless of where the samples fall.
func TestMergeCountsKeepsGrid(t *testing.T) {
	h := MustFromBuckets([]Bucket{{Lo: 0, Hi: 1, Pr: 0.5}, {Lo: 1, Hi: 2, Pr: 0.5}})
	got, err := h.MergeCounts([]float64{-50, 0.5, 99}, 2)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.Buckets()
	if gb[0].Lo != 0 || gb[0].Hi != 1 || gb[1].Lo != 1 || gb[1].Hi != 2 {
		t.Fatalf("grid moved: %+v", gb)
	}
	// counts: bucket0 = 0.5*2 + 2 (clamped -50 and 0.5), bucket1 = 0.5*2 + 1 (clamped 99)
	tot := 3.0 + 2.0
	if math.Abs(gb[0].Pr-3/tot) > 1e-15 || math.Abs(gb[1].Pr-2/tot) > 1e-15 {
		t.Fatalf("unexpected probabilities: %+v", gb)
	}
	if _, err := h.MergeCounts([]float64{math.NaN()}, 1); err == nil {
		t.Fatal("expected NaN rejection")
	}
	if _, err := h.MergeCounts(nil, -1); err == nil {
		t.Fatal("expected negative-weight rejection")
	}
}
