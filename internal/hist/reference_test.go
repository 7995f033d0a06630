package hist

import "fmt"

// rearrange implements the bucket rearrangement of Section 4.2: it
// overlays possibly-overlapping uniform interval masses, splits at all
// interval boundaries, and returns disjoint buckets whose mass is the
// length-proportional share of each contributing interval — exactly
// the procedure of the paper's Figure 7 example. ivals is sorted in
// place.
func rearrange(ivals []Bucket) (*Histogram, error) {
	sc := rearrangePool.Get().(*rearrangeScratch)
	defer rearrangePool.Put(sc)
	bs, err := rearrangeInto(sc, nil, ivals)
	if err != nil {
		return nil, err
	}
	return fromBucketsOwned(bs)
}

// Reference operations no production path calls, kept for the tests
// that use them as oracles.

// Convolve returns the distribution of X+Y for independent X, Y
// (the ⊙ operator of the legacy baseline, Section 2.3). Each pair of
// buckets contributes the interval sum [loX+loY, hiX+hiY) with mass
// prX·prY; overlaps are resolved by rearrangement, mirroring the
// paper's uniform-within-bucket treatment. It is the
// independent-convolution oracle the joint histograms are measured
// against.
func Convolve(x, y *Histogram) *Histogram {
	ivals := make([]Bucket, 0, len(x.buckets)*len(y.buckets))
	for _, bx := range x.buckets {
		for _, by := range y.buckets {
			ivals = append(ivals, Bucket{
				Lo: bx.Lo + by.Lo,
				Hi: bx.Hi + by.Hi,
				Pr: bx.Pr * by.Pr,
			})
		}
	}
	h, err := rearrange(ivals)
	if err != nil {
		// Inputs are valid histograms, so intervals are valid.
		panic(err)
	}
	return h
}

// ConvolveAll folds Convolve over hs left to right. It panics on an
// empty input because the sum of zero distributions is undefined.
func ConvolveAll(hs []*Histogram) *Histogram {
	if len(hs) == 0 {
		panic("hist: ConvolveAll of no histograms")
	}
	acc := hs[0]
	for _, h := range hs[1:] {
		acc = Convolve(acc, h)
	}
	return acc
}

// Rearranged builds a histogram from raw interval masses: the
// reference RearrangedCuts replicates.
func Rearranged(intervals []Bucket) (*Histogram, error) {
	sc := rearrangePool.Get().(*rearrangeScratch)
	defer rearrangePool.Put(sc)
	sc.wi = append(sc.wi[:0], intervals...)
	bs, err := rearrangeInto(sc, nil, sc.wi)
	if err != nil {
		return nil, err
	}
	return fromBucketsOwned(bs)
}

// Cell returns the probability of the hyper-bucket with the given
// indices (0 when unoccupied).
func (m *Multi) Cell(idx []int) float64 {
	var key CellKey
	for d, i := range idx {
		key[d] = uint16(i)
	}
	if i, ok := m.search(PackKey(key)); ok {
		return m.probs[i]
	}
	return 0
}

// Marginal returns the one-dimensional marginal distribution of
// dimension d, accumulated in sorted key order.
func (m *Multi) Marginal(d int) *Histogram {
	pr := make([]float64, m.NumBuckets(d))
	for i, k := range m.keys {
		pr[k.Dim(d)] += m.probs[i]
	}
	bs := make([]Bucket, 0, len(pr))
	for i, p := range pr {
		if p > 0 {
			lo, hi := m.BucketRange(d, i)
			bs = append(bs, Bucket{Lo: lo, Hi: hi, Pr: p})
		}
	}
	h, err := FromBuckets(bs)
	if err != nil {
		panic(fmt.Sprintf("hist: marginal of dim %d: %v", d, err))
	}
	return h
}

// ForEachSealed seals the delta and visits its cells in ascending key
// order.
func (d *Delta) ForEachSealed(fn func(key CellKey, w float64)) {
	d.seal()
	for i := range d.keys {
		fn(d.keys[i].Unpack(), d.mass[i])
	}
}

// defaultSamplesConfig is NewMultiFromSamples at one-second resolution
// with the default Auto settings.
func defaultSamplesConfig() FromSamplesConfig {
	return FromSamplesConfig{Resolution: DefaultResolution, Auto: DefaultAutoConfig()}
}

// Compress reduces the histogram to at most maxBuckets buckets by
// repeatedly merging the adjacent pair whose merge increases the
// squared-error of the piecewise-uniform density least: the public
// composition SumHistogram and RearrangedCuts compress by, kept as
// their oracle; a no-op when already small.
func (h *Histogram) Compress(maxBuckets int) *Histogram {
	if maxBuckets < 1 || len(h.buckets) <= maxBuckets {
		return h
	}
	bs := make([]Bucket, len(h.buckets))
	copy(bs, h.buckets)
	bs = compressBuckets(bs, maxBuckets)
	out, err := fromBucketsOwned(bs)
	if err != nil {
		panic(err) // merging valid disjoint buckets keeps them valid
	}
	return out
}

// compressBuckets is the Compress merge loop operating in place on a
// caller-owned working slice.
func compressBuckets(bs []Bucket, maxBuckets int) []Bucket {
	return compressBucketsInto(bs, maxBuckets, nil)
}
