package hist

import (
	"fmt"
	"math"
	"sort"
)

// Delta accumulates new probability mass (typically raw sample counts)
// addressed by multi-dimensional cell keys, to be merged into an
// existing Multi with MergeDelta. It is the write-side companion of
// the columnar sorted-cell layout: Add is cheap and order-tolerant,
// and sealing sorts the accumulated cells once so the merge itself is
// a linear merge-join over two sorted arrays.
//
// Determinism: for a fixed sequence of Add calls the sealed cell
// array — and therefore every byte of the merged histogram — is
// identical across runs. Mass added under duplicate keys is summed in
// insertion order (the sort is stable), so callers that need
// bit-exact reproducibility must feed samples in a deterministic
// order, which the trajectory pipeline does.
type Delta struct {
	keys  []PackedKey
	mass  []float64
	dirty bool // keys are not known to be sorted+deduplicated
}

// NewDelta returns an empty accumulator.
func NewDelta() *Delta {
	return &Delta{}
}

// Add accumulates w units of mass in the cell addressed by key.
// Consecutive Adds to the same key collapse immediately; otherwise
// out-of-order keys are tolerated and resolved at seal time.
func (d *Delta) Add(key CellKey, w float64) {
	pk := PackKey(key)
	if n := len(d.keys); n > 0 {
		if d.keys[n-1] == pk {
			d.mass[n-1] += w
			return
		}
		if !d.keys[n-1].Less(pk) {
			d.dirty = true
		}
	}
	d.keys = append(d.keys, pk)
	d.mass = append(d.mass, w)
}

// Len reports the number of distinct cells accumulated so far (an
// upper bound until the delta is sealed; exact afterwards).
func (d *Delta) Len() int { return len(d.keys) }

// seal sorts the accumulated cells by key and folds duplicates,
// summing duplicate mass in insertion order. Idempotent.
func (d *Delta) seal() {
	if !d.dirty {
		return
	}
	idx := make([]int, len(d.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return d.keys[idx[a]].Less(d.keys[idx[b]])
	})
	keys := make([]PackedKey, 0, len(d.keys))
	mass := make([]float64, 0, len(d.mass))
	for _, i := range idx {
		if n := len(keys); n > 0 && keys[n-1] == d.keys[i] {
			mass[n-1] += d.mass[i]
			continue
		}
		keys = append(keys, d.keys[i])
		mass = append(mass, d.mass[i])
	}
	d.keys, d.mass, d.dirty = keys, mass, false
}

// BinClamped maps a point to the receiver's cell key, clamping each
// coordinate that falls outside the bucket range to the nearest
// boundary bucket. This is how streaming samples are binned onto a
// frozen grid: the grid never moves between epochs, so outliers land
// in the extreme buckets instead of forcing a rebucketing.
func (m *Multi) BinClamped(point []float64) (CellKey, error) {
	if len(point) != len(m.bounds) {
		return CellKey{}, fmt.Errorf("hist: point has %d dims, histogram has %d", len(point), len(m.bounds))
	}
	var key CellKey
	for d := range m.bounds {
		i := m.locate(d, point[d])
		if i < 0 {
			if point[d] < m.bounds[d][0] {
				i = 0
			} else {
				i = len(m.bounds[d]) - 2
			}
		}
		key[d] = uint16(i)
	}
	return key, nil
}

// MergeDelta returns a new Multi on the receiver's (frozen) bounds
// whose cell mass is scale×(existing mass) plus the delta's mass — a
// single linear merge-join over the two sorted cell arrays, the same
// machinery the convolution kernel uses. scale < 1 implements
// exponential time-decay of stale mass; scale is typically
// decayFactor×oldSupport so that existing probabilities re-enter the
// count domain before new sample counts are added.
//
// The result is NOT normalized (callers usually batch several merges
// before renormalizing) and is allocated from the shared cell pool;
// the caller owns it. The receiver is unchanged; the delta is sealed
// in place (idempotent). Delta keys must address cells inside the
// receiver's grid.
func (m *Multi) MergeDelta(d *Delta, scale float64) (*Multi, error) {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("hist: invalid merge scale %v", scale)
	}
	d.seal()
	ndims := len(m.bounds)
	for i, k := range d.keys {
		for dd := 0; dd < ndims; dd++ {
			if int(k.Dim(dd)) >= len(m.bounds[dd])-1 {
				return nil, fmt.Errorf("hist: delta cell %d key dim %d = %d outside grid (%d buckets)",
					i, dd, k.Dim(dd), len(m.bounds[dd])-1)
			}
		}
		if k.MaskPrefix(ndims) != k {
			return nil, fmt.Errorf("hist: delta cell %d has nonzero key beyond dim %d", i, ndims)
		}
		if d.mass[i] < 0 || math.IsNaN(d.mass[i]) || math.IsInf(d.mass[i], 0) {
			return nil, fmt.Errorf("hist: delta cell %d has invalid mass %v", i, d.mass[i])
		}
	}

	out := newMultiFromPool(ndims, len(m.keys)+len(d.keys))
	// Boundary slices are immutable and routinely shared between
	// histograms (see PutMulti); the merged epoch keeps the old grid.
	copy(out.bounds, m.bounds)
	// Cells whose merged mass is exactly zero (fully decayed, or a
	// zero-mass delta entry) are dropped, not stored: the columnar
	// arrays only ever hold occupied cells.
	emit := func(key PackedKey, p float64) {
		if p == 0 {
			return
		}
		out.keys = append(out.keys, key)
		out.probs = append(out.probs, p)
	}
	i, j := 0, 0
	for i < len(m.keys) && j < len(d.keys) {
		switch {
		case m.keys[i] == d.keys[j]:
			emit(m.keys[i], m.probs[i]*scale+d.mass[j])
			i++
			j++
		case m.keys[i].Less(d.keys[j]):
			emit(m.keys[i], m.probs[i]*scale)
			i++
		default:
			emit(d.keys[j], d.mass[j])
			j++
		}
	}
	for ; i < len(m.keys); i++ {
		emit(m.keys[i], m.probs[i]*scale)
	}
	for ; j < len(d.keys); j++ {
		emit(d.keys[j], d.mass[j])
	}
	return out, nil
}

// MergeCounts is the 1-D analogue of MergeDelta for rank-1 variables:
// it returns a histogram on the receiver's frozen bucket grid whose
// unnormalized mass is oldWeight×(existing probability) plus the
// per-bucket count of the new samples, renormalized. Samples that
// fall outside the support (or into a gap between buckets) clamp to
// the nearest bucket, matching BinClamped semantics.
func (h *Histogram) MergeCounts(samples []float64, oldWeight float64) (*Histogram, error) {
	if oldWeight < 0 || math.IsNaN(oldWeight) || math.IsInf(oldWeight, 0) {
		return nil, fmt.Errorf("hist: invalid merge weight %v", oldWeight)
	}
	if len(h.buckets) == 0 {
		return nil, fmt.Errorf("hist: cannot merge into empty histogram")
	}
	bs := make([]Bucket, len(h.buckets))
	copy(bs, h.buckets)
	for i := range bs {
		bs[i].Pr *= oldWeight
	}
	for _, v := range samples {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("hist: NaN sample in merge")
		}
		bs[h.bucketIndexClamped(v)].Pr++
	}
	return fromBucketsOwned(bs)
}

// bucketIndexClamped returns the index of the bucket a value falls
// into, clamping values below the support to the first bucket and
// values at or above the top boundary to the last. Values in a gap
// between disjoint buckets round up to the next bucket.
func (h *Histogram) bucketIndexClamped(v float64) int {
	i := sort.Search(len(h.buckets), func(i int) bool { return v < h.buckets[i].Hi })
	if i == len(h.buckets) {
		return len(h.buckets) - 1
	}
	return i
}
