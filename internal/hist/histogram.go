package hist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Bucket is a half-open cost range [Lo, Hi) carrying probability Pr.
// Probability mass is uniformly distributed within the bucket. The
// tags are the serving tiers' wire shape (api.Bucket is this type), so
// an answer's buckets are written from the histogram's own slice.
type Bucket struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	Pr float64 `json:"pr"`
}

// Width returns Hi − Lo.
func (b Bucket) Width() float64 { return b.Hi - b.Lo }

// Histogram is a one-dimensional histogram: a set of disjoint,
// strictly increasing buckets whose probabilities sum to one
// (Section 3.1). The zero value is not usable; construct via
// FromBuckets, FromRaw, or the V-Optimal builders.
type Histogram struct {
	buckets []Bucket
}

// validateBuckets runs the FromBuckets shape checks and returns the
// total mass.
func validateBuckets(bs []Bucket) (float64, error) {
	if len(bs) == 0 {
		return 0, fmt.Errorf("hist: no buckets")
	}
	var total float64
	for i, b := range bs {
		if !(b.Hi > b.Lo) {
			return 0, fmt.Errorf("hist: bucket %d has non-positive width [%v,%v)", i, b.Lo, b.Hi)
		}
		if b.Pr < 0 || math.IsNaN(b.Pr) {
			return 0, fmt.Errorf("hist: bucket %d has invalid probability %v", i, b.Pr)
		}
		if i > 0 && b.Lo < bs[i-1].Hi {
			return 0, fmt.Errorf("hist: bucket %d overlaps or is out of order", i)
		}
		total += b.Pr
	}
	if total <= 0 {
		return 0, fmt.Errorf("hist: zero total probability")
	}
	return total, nil
}

// normalizeBuckets validates bs in place and divides every probability
// by the total — the FromBuckets normalization without the defensive
// copy, for callers that own bs.
func normalizeBuckets(bs []Bucket) error {
	total, err := validateBuckets(bs)
	if err != nil {
		return err
	}
	for i := range bs {
		bs[i].Pr /= total
	}
	return nil
}

// FromBuckets validates and constructs a histogram from buckets. The
// buckets must be non-empty, each with Hi > Lo and Pr ≥ 0, pairwise
// disjoint and sorted; probabilities are normalized to sum to one.
func FromBuckets(bs []Bucket) (*Histogram, error) {
	total, err := validateBuckets(bs)
	if err != nil {
		return nil, err
	}
	out := make([]Bucket, len(bs))
	copy(out, bs)
	for i := range out {
		out[i].Pr /= total
	}
	return &Histogram{buckets: out}, nil
}

// fromBucketsOwned is FromBuckets taking ownership of bs: it
// normalizes in place instead of copying. The float operations are
// identical, so results are bit-identical to FromBuckets.
func fromBucketsOwned(bs []Bucket) (*Histogram, error) {
	if err := normalizeBuckets(bs); err != nil {
		return nil, err
	}
	return &Histogram{buckets: bs}, nil
}

// FromBucketsExact is FromBuckets for already-normalized input: it
// runs the same shape validation but keeps every probability exactly
// as given instead of renormalizing, requiring the total mass to lie
// within tol of one. Deserializers use it so that a load followed by
// a save reproduces the input bytes — FromBuckets' renormalization
// divides by a total that is only approximately one, perturbing every
// value at the bit level.
func FromBucketsExact(bs []Bucket, tol float64) (*Histogram, error) {
	if len(bs) == 0 {
		return nil, fmt.Errorf("hist: no buckets")
	}
	var total float64
	for i, b := range bs {
		if !(b.Hi > b.Lo) {
			return nil, fmt.Errorf("hist: bucket %d has non-positive width [%v,%v)", i, b.Lo, b.Hi)
		}
		if b.Pr < 0 || math.IsNaN(b.Pr) {
			return nil, fmt.Errorf("hist: bucket %d has invalid probability %v", i, b.Pr)
		}
		if i > 0 && b.Lo < bs[i-1].Hi {
			return nil, fmt.Errorf("hist: bucket %d overlaps or is out of order", i)
		}
		total += b.Pr
	}
	if math.Abs(total-1) > tol {
		return nil, fmt.Errorf("hist: bucket mass %v is not normalized (tolerance %v)", total, tol)
	}
	return &Histogram{buckets: append([]Bucket(nil), bs...)}, nil
}

// MustFromBuckets is FromBuckets that panics on error; for fixtures
// and generators whose inputs are known-valid by construction.
func MustFromBuckets(bs []Bucket) *Histogram {
	h, err := FromBuckets(bs)
	if err != nil {
		panic(err)
	}
	return h
}

// Point returns a histogram concentrated on the resolution-wide bucket
// starting at v; used for speed-limit fallback costs.
func Point(v, resolution float64) *Histogram {
	return MustFromBuckets([]Bucket{{Lo: v, Hi: v + resolution, Pr: 1}})
}

// NumBuckets returns the bucket count b.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Buckets returns the backing bucket slice; callers must not modify it.
func (h *Histogram) Buckets() []Bucket { return h.buckets }

// Min returns the lower support bound (used by shift-and-enlarge).
func (h *Histogram) Min() float64 { return h.buckets[0].Lo }

// Max returns the upper support bound (used by shift-and-enlarge).
func (h *Histogram) Max() float64 { return h.buckets[len(h.buckets)-1].Hi }

// Mean returns the expected value under uniform-within-bucket.
func (h *Histogram) Mean() float64 {
	var m float64
	for _, b := range h.buckets {
		m += b.Pr * (b.Lo + b.Hi) / 2
	}
	return m
}

// Summary is the four numbers a distribution answer reports beside
// the buckets.
type Summary struct {
	Mean, P10, P50, P90 float64
}

// Summary computes the mean and the 10th, 50th and 90th percentiles.
func (h *Histogram) Summary() Summary {
	return Summary{Mean: h.Mean(), P10: h.Quantile(0.1), P50: h.Quantile(0.5), P90: h.Quantile(0.9)}
}

// Variance returns the variance under uniform-within-bucket.
func (h *Histogram) Variance() float64 {
	mu := h.Mean()
	var v float64
	for _, b := range h.buckets {
		mid := (b.Lo + b.Hi) / 2
		w := b.Width()
		// E[X²] within a uniform bucket = mid² + w²/12.
		v += b.Pr * (mid*mid + w*w/12)
	}
	return v - mu*mu
}

// CDF returns P(X ≤ x), clamped to [0, 1] against floating-point
// accumulation error.
func (h *Histogram) CDF(x float64) float64 { return cdf(h.buckets, x) }

// cdf is CDF over a bucket list.
func cdf(bs []Bucket, x float64) float64 {
	var acc float64
	for _, b := range bs {
		switch {
		case x >= b.Hi:
			acc += b.Pr
		case x <= b.Lo:
			return clamp01(acc)
		default:
			return clamp01(acc + b.Pr*(x-b.Lo)/b.Width())
		}
	}
	return clamp01(acc)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ProbWithin returns P(X ≤ budget); convenience alias used by the
// stochastic routing queries ("probability of arriving within x").
func (h *Histogram) ProbWithin(budget float64) float64 { return h.CDF(budget) }

// Quantile returns the smallest x with CDF(x) ≥ q, for q in [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	var acc float64
	for _, b := range h.buckets {
		if acc+b.Pr >= q {
			frac := (q - acc) / b.Pr
			return b.Lo + frac*b.Width()
		}
		acc += b.Pr
	}
	return h.Max()
}

// MassOn returns the probability mass on [lo, hi) under
// uniform-within-bucket semantics.
func (h *Histogram) MassOn(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	var acc float64
	for _, b := range h.buckets {
		ol := math.Max(lo, b.Lo)
		oh := math.Min(hi, b.Hi)
		if oh > ol {
			acc += b.Pr * (oh - ol) / b.Width()
		}
	}
	return acc
}

// String renders the histogram compactly, e.g. "{[40,50):0.100 ...}".
func (h *Histogram) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range h.buckets {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%g,%g):%.4f", b.Lo, b.Hi, b.Pr)
	}
	sb.WriteByte('}')
	return sb.String()
}

// rearrangeScratch pools the transient buffers of one rearrangement
// (the cut set, and for the cuts-only entry point also the interval
// copy and the bucket workspace), so the evaluator's per-fold
// rearrangements stop allocating once warm. The intervals are Buckets
// that may overlap (convolution and hyper-bucket flattening make them).
type rearrangeScratch struct {
	cuts  []float64
	wi    []Bucket
	bs    []Bucket
	act   []int     // live-interval working set of the sweep
	costs []float64 // adjacent-pair merge costs for compression
}

var rearrangePool = sync.Pool{New: func() any { return new(rearrangeScratch) }}

// rearrangeInto is the rearrangement core: it splits at all interval
// boundaries and emits the disjoint density-merged buckets into bs
// (grown as needed), without the final normalization. The cut set
// lives in sc; ivals is sorted in place.
func rearrangeInto(sc *rearrangeScratch, bs []Bucket, ivals []Bucket) ([]Bucket, error) {
	if len(ivals) == 0 {
		return nil, fmt.Errorf("hist: rearrange of zero intervals")
	}
	for _, iv := range ivals {
		if !(iv.Hi > iv.Lo) {
			return nil, fmt.Errorf("hist: interval [%v,%v) has non-positive width", iv.Lo, iv.Hi)
		}
	}

	// Sort intervals by lo so each elementary cell only scans forward.
	slices.SortFunc(ivals, func(a, b Bucket) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case b.Lo < a.Lo:
			return 1
		default:
			return 0
		}
	})

	// The cut set is every distinct endpoint, ascending. The los are now
	// a sorted run; sort the his alone and merge the two runs, dropping
	// duplicates — the values a sort of all 2n endpoints would leave.
	n := len(ivals)
	cuts := sc.cuts[:0]
	if cap(cuts) < 2*n {
		cuts = make([]float64, 0, 2*n)
	}
	his := cuts[n : 2*n]
	for i, iv := range ivals {
		his[i] = iv.Hi
	}
	sort.Float64s(his)
	for i, j := 0, 0; i < n || j < n; {
		var c float64
		if j == n || (i < n && ivals[i].Lo <= his[j]) {
			c = ivals[i].Lo
			i++
		} else {
			c = his[j]
			j++
		}
		// his shares cuts' buffer, n slots up: this write lands at
		// index ≤ i+j−1 < n+j, the first hi not yet read.
		if len(cuts) == 0 || c != cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	sc.cuts = cuts

	if cap(bs) < len(cuts)-1 {
		bs = make([]Bucket, 0, len(cuts)-1)
	} else {
		bs = bs[:0]
	}
	// Sweep the elementary cells left to right with a live-interval
	// working set: each interval enters when its lo crosses the cell
	// (intervals are sorted by lo, so entries arrive in index order) and
	// is compacted out once fully behind the sweep. Every interval is
	// touched once per cell it actually overlaps, instead of being
	// rescanned from the start for every cell. Compaction preserves
	// index order, so the per-cell accumulation visits intervals in the
	// same sequence as the full rescan did — the sums are bit-identical.
	act := sc.act[:0]
	next := 0
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		for next < len(ivals) && ivals[next].Lo < hi {
			act = append(act, next)
			next++
		}
		var pr float64
		w := 0
		for _, j := range act {
			iv := ivals[j]
			if iv.Hi <= lo {
				continue // fully behind the sweep; drop from the set
			}
			act[w] = j
			w++
			pr += iv.Pr * (hi - lo) / (iv.Hi - iv.Lo)
		}
		act = act[:w]
		if pr > 0 {
			bs = append(bs, Bucket{Lo: lo, Hi: hi, Pr: pr})
		}
	}
	sc.act = act
	// Merge adjacent cells with (near-)identical density to keep the
	// result minimal without changing the distribution.
	return mergeEqualDensity(bs), nil
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func mergeEqualDensity(bs []Bucket) []Bucket {
	if len(bs) < 2 {
		return bs
	}
	const tol = 1e-12
	out := bs[:1]
	for _, b := range bs[1:] {
		last := &out[len(out)-1]
		if b.Lo == last.Hi {
			d1 := last.Pr / last.Width()
			d2 := b.Pr / b.Width()
			if math.Abs(d1-d2) <= tol*(d1+d2+1) {
				last.Hi = b.Hi
				last.Pr += b.Pr
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// rearrangeCompressed is the rearrangement of ivals into bs (grown as
// needed), normalized, then compressed to maxBuckets (≤ 0 leaves it
// uncompressed): the composition rearrangement, FromBuckets and
// Compress, float operation for float operation, with the cut set, the
// sweep's working set and the merge costs in sc. ivals is sorted in
// place.
func rearrangeCompressed(sc *rearrangeScratch, bs, ivals []Bucket, maxBuckets int) ([]Bucket, error) {
	bs, err := rearrangeInto(sc, bs, ivals)
	if err != nil {
		return nil, err
	}
	// A rearranged histogram ends in the FromBuckets normalization.
	if err := normalizeBuckets(bs); err != nil {
		return nil, err
	}
	// Compress merges on a working copy (bs already is one) and
	// re-normalizes through FromBuckets; it no-ops when small enough.
	if maxBuckets >= 1 && len(bs) > maxBuckets {
		bs = compressBucketsInto(bs, maxBuckets, sc)
		if err := normalizeBuckets(bs); err != nil {
			panic(err) // merging valid disjoint buckets keeps them valid
		}
	}
	return bs, nil
}

// RearrangedCuts rearranges raw interval masses into a histogram and
// compresses it to maxBuckets, returning only the resulting bucket
// boundaries, in dst's storage when it has room. The evaluator
// re-buckets its accumulator axis with it on every fold; keeping the
// interval copy, the cut set and the bucket workspace pooled makes the
// warm path allocate at most the returned boundary slice. (Sorting the caller's slice in place instead
// of copying it measured 1.6 % slower on cold_chain.) The float
// operations replicate rearrangement, the FromBuckets normalization and
// Compress exactly, so the boundaries are bit-identical to that
// composition (the tests' Rearranged+Compress).
func RearrangedCuts(dst []float64, intervals []Bucket, maxBuckets int) ([]float64, error) {
	sc := rearrangePool.Get().(*rearrangeScratch)
	defer rearrangePool.Put(sc)
	sc.wi = append(sc.wi[:0], intervals...)
	bs, err := rearrangeCompressed(sc, sc.bs, sc.wi, maxBuckets)
	if err != nil {
		return nil, err
	}
	sc.bs = bs[:0]
	cuts := dst[:0]
	if cap(cuts) < len(bs)+1 {
		cuts = make([]float64, 0, len(bs)+1)
	}
	for _, b := range bs {
		cuts = append(cuts, b.Lo)
	}
	cuts = append(cuts, bs[len(bs)-1].Hi)
	return cuts, nil
}

// compressBucketsInto is compressBuckets with the adjacent-pair cost
// array kept in pooled scratch (when sc is non-nil). mergeCost is a
// pure function of the two buckets, so each merge invalidates only the
// (at most two) pairs adjacent to the merge point; every other cached
// cost is exactly what a full rescan would recompute. The selection
// scan keeps the first-strictly-smaller tie-break of the rescan loop,
// so the merge sequence — and every output byte — is identical.
func compressBucketsInto(bs []Bucket, maxBuckets int, sc *rearrangeScratch) []Bucket {
	if len(bs) <= maxBuckets {
		return bs
	}
	var costs []float64
	if sc != nil && cap(sc.costs) >= len(bs)-1 {
		costs = sc.costs[:len(bs)-1]
	} else {
		costs = make([]float64, len(bs)-1)
		if sc != nil {
			sc.costs = costs
		}
	}
	for i := range costs {
		costs[i] = mergeCost(bs[i], bs[i+1])
	}
	for len(bs) > maxBuckets {
		bestIdx, bestCost := 0, costs[0]
		for i := 1; i < len(costs); i++ {
			if costs[i] < bestCost {
				bestCost, bestIdx = costs[i], i
			}
		}
		a, b := bs[bestIdx], bs[bestIdx+1]
		bs[bestIdx] = Bucket{Lo: a.Lo, Hi: b.Hi, Pr: a.Pr + b.Pr}
		bs = append(bs[:bestIdx+1], bs[bestIdx+2:]...)
		costs = append(costs[:bestIdx], costs[bestIdx+1:]...)
		if bestIdx > 0 {
			costs[bestIdx-1] = mergeCost(bs[bestIdx-1], bs[bestIdx])
		}
		if bestIdx < len(costs) {
			costs[bestIdx] = mergeCost(bs[bestIdx], bs[bestIdx+1])
		}
	}
	return bs
}

// mergeCost scores merging adjacent buckets a and b: the L2 distance
// between the original two-step density and the merged flat density,
// plus the mass "smeared" into any gap between them.
func mergeCost(a, b Bucket) float64 {
	lo, hi := a.Lo, b.Hi
	w := hi - lo
	dm := (a.Pr + b.Pr) / w
	da := a.Pr / a.Width()
	db := b.Pr / b.Width()
	cost := (da-dm)*(da-dm)*a.Width() + (db-dm)*(db-dm)*b.Width()
	if gap := b.Lo - a.Hi; gap > 0 {
		cost += dm * dm * gap
	}
	return cost
}

// SquaredError computes SE(H, D) of Section 3.1: the sum over the raw
// distribution's cost values of the squared difference between the
// histogram's per-value probability estimate and the raw probability.
// The histogram's estimate for a lattice value is its bucket
// probability split uniformly over the lattice points the bucket
// covers.
func (h *Histogram) SquaredError(d *Raw) float64 {
	var se float64
	for _, e := range d.Entries {
		est := h.MassOn(e.Value, e.Value+d.Resolution)
		diff := est - e.Perc
		se += diff * diff
	}
	return se
}

// Dominates reports whether h first-order stochastically dominates g:
// P(h ≤ x) ≥ P(g ≤ x) at every x (h is never worse). Stochastic
// routing algorithms use this to discard dominated candidate paths.
func (h *Histogram) Dominates(g *Histogram) bool {
	cuts := make([]float64, 0, 2*(len(h.buckets)+len(g.buckets)))
	for _, b := range h.buckets {
		cuts = append(cuts, b.Lo, b.Hi)
	}
	for _, b := range g.buckets {
		cuts = append(cuts, b.Lo, b.Hi)
	}
	sort.Float64s(cuts)
	cuts = dedupFloats(cuts)
	for _, x := range cuts {
		if h.CDF(x) < g.CDF(x)-1e-12 {
			return false
		}
	}
	return true
}
