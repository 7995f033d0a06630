package hist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// MaxDims bounds the dimensionality of a multi-dimensional histogram.
// A dimension corresponds to one edge of a path, plus one synthetic
// accumulator dimension used by the chain evaluator, so this bounds
// the maximum instantiable path rank.
const MaxDims = 12

// CellKey identifies a hyper-bucket by its per-dimension bucket
// indices. Unused trailing dimensions must be zero so that keys remain
// directly comparable. This is the API form; storage and all hot
// comparisons use the dimension-packed PackedKey (see packedkey.go),
// for which the tests' cellKeyLess is the ordering oracle.
type CellKey [MaxDims]uint16

// Multi is a multi-dimensional histogram (Section 3.2): per-dimension
// bucket boundaries form a grid, and a sparse columnar cell store
// assigns probability to occupied hyper-buckets. Probabilities sum to
// one.
//
// Cells live in two parallel slices — keys and probs — kept in
// ascending lexicographic key order at all times. The sorted layout
// makes ForEachSorted (and everything built on it: Total, marginals,
// folding, serialization) a zero-allocation linear scan, and lets the
// chain evaluator join two histograms' cells with a merge instead of
// hash lookups. The map-based predecessor re-derived this order with a
// sort on every visit. Keys are stored dimension-packed (PackedKey),
// so the order is maintained with 1–3 word compares per key pair.
type Multi struct {
	bounds [][]float64 // bounds[d] has len nb_d+1, strictly increasing
	keys   []PackedKey // ascending lexicographic, no duplicates
	probs  []float64   // probs[i] belongs to keys[i]

	// sum caches the last SumHistogram result; any cell mutation
	// invalidates it. Model variables are immutable once built, and the
	// single-factor "lucky case" of chain evaluation flattens the same
	// joint on every query.
	sum atomic.Pointer[sumHistCache]
}

// sumHistCache is one memoized SumHistogram answer; maxBuckets is part
// of the identity because compression depends on it.
type sumHistCache struct {
	maxBuckets int
	h          *Histogram
}

// NewMulti creates an empty multi-dimensional histogram over the given
// per-dimension boundaries. Mass must be added via Add and then
// Normalize must be called.
func NewMulti(bounds [][]float64) (*Multi, error) {
	cp, err := validateBounds(bounds)
	if err != nil {
		return nil, err
	}
	return &Multi{bounds: cp}, nil
}

// multiPool recycles the transient Multis the chain evaluator churns
// through: remapped alignment views and intermediate chain states live
// for one multiply/fold step and then die. A pooled Multi keeps its
// cell buffers and top-level bounds slice attached, so reuse restores
// their capacity without re-allocating.
var multiPool = sync.Pool{New: func() any { return new(Multi) }}

// poisonReleased makes PutMulti scramble every key and set every
// probability of what it releases to NaN, in test binaries only: a
// Multi read after its release then shows as a wrong answer or a
// broken cell order instead of passing by luck.
var poisonReleased = testing.Testing()

// newMultiFromPool returns a pooled Multi with a bounds top-slice of
// length ndims (nil elements, to be filled by the caller) and empty
// cell buffers with capacity ≥ cellCap.
func newMultiFromPool(ndims, cellCap int) *Multi {
	m := multiPool.Get().(*Multi)
	if cap(m.bounds) < ndims {
		m.bounds = make([][]float64, ndims)
	} else {
		m.bounds = m.bounds[:ndims]
		for i := range m.bounds {
			m.bounds[i] = nil
		}
	}
	if cap(m.keys) < cellCap {
		m.keys = make([]PackedKey, 0, cellCap)
	} else {
		m.keys = m.keys[:0]
	}
	if cap(m.probs) < cellCap {
		m.probs = make([]float64, 0, cellCap)
	} else {
		m.probs = m.probs[:0]
	}
	return m
}

// PutMulti recycles a transient Multi: the struct, its cell buffers
// and its top-level bounds slice return to the pool. The caller must
// be the Multi's sole owner and must not touch it afterwards. The
// per-dimension boundary slices are released, not pooled — they are
// routinely shared between histograms.
func PutMulti(m *Multi) {
	if m == nil {
		return
	}
	if poisonReleased {
		for i := range m.keys {
			for w := range m.keys[i] {
				m.keys[i][w] = ^m.keys[i][w]
			}
			m.probs[i] = math.NaN()
		}
	}
	for i := range m.bounds {
		m.bounds[i] = nil
	}
	m.bounds = m.bounds[:0]
	m.keys = m.keys[:0]
	m.probs = m.probs[:0]
	m.invalidateSum()
	multiPool.Put(m)
}

// NewMultiFromPackedCells builds a pooled Multi from a columnar cell
// dump, for producers that already hold packed keys and guarantee the
// cell contract by construction: keys strictly ascending, indices
// inside the grid, zero unused dimensions. The chain evaluator's
// kernels qualify — their emission loops provably emit in sorted order
// — so this constructor skips the per-cell validation pass entirely;
// everyone else builds through NewMulti and SetCell/Add. Violating
// the contract corrupts every sorted-scan consumer downstream; the
// kernels' tests assert it (core's checkCellContract) after every
// kernel change. The per-dimension boundary slices are shared (treat
// them as immutable); the top-level bounds slice and the cells are
// copied, so the caller may reuse all three argument slices.
func NewMultiFromPackedCells(bounds [][]float64, keys []PackedKey, probs []float64) (*Multi, error) {
	// Trusted constructor: callers own boundary monotonicity (kernel
	// states pass model bounds plus rearranged cuts, both ascending by
	// construction), so the O(Σ|bounds|) per-value scan of
	// validateBounds is skipped. Shape is still checked; tests cover
	// the rest.
	if len(bounds) == 0 || len(bounds) > MaxDims {
		return nil, fmt.Errorf("hist: %d dimensions out of range [1,%d]", len(bounds), MaxDims)
	}
	for d, bd := range bounds {
		if len(bd) < 2 {
			return nil, fmt.Errorf("hist: dimension %d has %d boundaries, need ≥ 2", d, len(bd))
		}
		if len(bd) > math.MaxUint16 {
			return nil, fmt.Errorf("hist: dimension %d has too many buckets", d)
		}
	}
	if len(keys) != len(probs) {
		return nil, fmt.Errorf("hist: %d keys but %d probabilities", len(keys), len(probs))
	}
	m := newMultiFromPool(len(bounds), len(keys))
	copy(m.bounds, bounds)
	m.keys = m.keys[:len(keys)]
	copy(m.keys, keys)
	m.probs = m.probs[:len(probs)]
	copy(m.probs, probs)
	return m, nil
}

// validateBounds checks the grid shape and returns a deep copy of it.
func validateBounds(bounds [][]float64) ([][]float64, error) {
	if len(bounds) == 0 || len(bounds) > MaxDims {
		return nil, fmt.Errorf("hist: %d dimensions out of range [1,%d]", len(bounds), MaxDims)
	}
	out := make([][]float64, len(bounds))
	for d, bd := range bounds {
		if len(bd) < 2 {
			return nil, fmt.Errorf("hist: dimension %d has %d boundaries, need ≥ 2", d, len(bd))
		}
		if len(bd) > math.MaxUint16 {
			return nil, fmt.Errorf("hist: dimension %d has too many buckets", d)
		}
		for i := 1; i < len(bd); i++ {
			if !(bd[i] > bd[i-1]) {
				return nil, fmt.Errorf("hist: dimension %d boundaries not increasing at %d", d, i)
			}
		}
		out[d] = append([]float64(nil), bd...)
	}
	return out, nil
}

// Dims returns the number of dimensions.
func (m *Multi) Dims() int { return len(m.bounds) }

// Bounds returns the boundary slice of dimension d; do not modify.
func (m *Multi) Bounds(d int) []float64 { return m.bounds[d] }

// NumBuckets returns the bucket count of dimension d.
func (m *Multi) NumBuckets(d int) int { return len(m.bounds[d]) - 1 }

// NumCells returns the number of occupied hyper-buckets.
func (m *Multi) NumCells() int { return len(m.keys) }

// Cells exposes the columnar cell storage: the packed keys in
// ascending lexicographic order and the parallel probabilities. The
// chain evaluator's merge-join and fold kernels iterate these
// directly. Callers must not modify either slice.
func (m *Multi) Cells() (keys []PackedKey, probs []float64) { return m.keys, m.probs }

// cellKeyFloats is the float64-equivalent storage of one cell key in
// the columnar layout (a CellKey is MaxDims uint16 words).
const cellKeyFloats = MaxDims * 2 / 8

// StorageFloats reports the storage footprint as a float count: all
// boundaries plus, per occupied cell, the key's columnar storage
// (cellKeyFloats float-equivalents) and one probability. Used for the
// Fig. 11(c)/Fig. 12 space accounting.
func (m *Multi) StorageFloats() int {
	n := 0
	for _, bd := range m.bounds {
		n += len(bd)
	}
	return n + (cellKeyFloats+1)*len(m.keys)
}

// BucketRange returns [lo, hi) of bucket i on dimension d.
func (m *Multi) BucketRange(d, i int) (lo, hi float64) {
	return m.bounds[d][i], m.bounds[d][i+1]
}

// locate returns the bucket index of v on dimension d, or -1 when v is
// outside the dimension's support.
func (m *Multi) locate(d int, v float64) int {
	bd := m.bounds[d]
	if v < bd[0] || v >= bd[len(bd)-1] {
		// Values exactly at the top boundary belong to the last bucket;
		// this keeps max-valued samples inside the histogram.
		if v == bd[len(bd)-1] {
			return len(bd) - 2
		}
		return -1
	}
	i := sort.SearchFloat64s(bd, v)
	if i < len(bd) && bd[i] == v {
		return i
	}
	return i - 1
}

// search returns the storage index of key and whether it is occupied;
// for absent keys the returned index is the insertion position.
func (m *Multi) search(key PackedKey) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return !m.keys[i].Less(key) })
	if i < len(m.keys) && m.keys[i] == key {
		return i, true
	}
	return i, false
}

// invalidateSum drops the cached SumHistogram; every cell mutation
// must call it. Only a populated cache is cleared — an atomic store
// dirties the cache line and runs a write barrier, and most mutated
// histograms never flattened.
func (m *Multi) invalidateSum() {
	if m.sum.Load() != nil {
		m.sum.Store(nil)
	}
}

// insertAt places a new cell at storage position i, shifting the tail.
func (m *Multi) insertAt(i int, key PackedKey, pr float64) {
	m.keys = append(m.keys, PackedKey{})
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = key
	m.probs = append(m.probs, 0)
	copy(m.probs[i+1:], m.probs[i:])
	m.probs[i] = pr
}

// removeAt deletes the cell at storage position i.
func (m *Multi) removeAt(i int) {
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.probs = append(m.probs[:i], m.probs[i+1:]...)
}

// addKey accrues w to the cell with the given key, inserting it when
// absent (mirroring map += semantics: a zero-weight accrual still
// creates the cell). Ascending insertions — the common case, since
// producers emit in sorted order — append in O(1).
func (m *Multi) addKey(key PackedKey, w float64) {
	if n := len(m.keys); n == 0 || m.keys[n-1].Less(key) {
		m.keys = append(m.keys, key)
		m.probs = append(m.probs, w)
	} else if i, ok := m.search(key); ok {
		m.probs[i] += w
	} else {
		m.insertAt(i, key, w)
	}
	m.invalidateSum()
}

// Add accrues weight w to the hyper-bucket containing point; it
// reports false when the point is outside the grid.
func (m *Multi) Add(point []float64, w float64) bool {
	var key CellKey
	for d := range m.bounds {
		i := m.locate(d, point[d])
		if i < 0 {
			return false
		}
		key[d] = uint16(i)
	}
	m.addKey(PackKey(key), w)
	return true
}

// checkedKey converts per-dimension indices to a packed key, panicking
// on out-of-range indices. Used by tests and by factor operations.
func (m *Multi) checkedKey(idx []int) PackedKey {
	var key CellKey
	for d, i := range idx {
		if i < 0 || i >= m.NumBuckets(d) {
			panic(fmt.Sprintf("hist: cell index %d out of range on dim %d", i, d))
		}
		key[d] = uint16(i)
	}
	return PackKey(key)
}

// SetCell assigns probability to a hyper-bucket by index; indexes must
// be in range. Setting zero removes the cell. Used by tests and by
// factor operations; deserializers feed it cells in ascending key
// order, which appends directly into the columnar layout.
func (m *Multi) SetCell(idx []int, pr float64) {
	key := m.checkedKey(idx)
	if pr == 0 {
		if i, ok := m.search(key); ok {
			m.removeAt(i)
			m.invalidateSum()
		}
		return
	}
	if n := len(m.keys); n == 0 || m.keys[n-1].Less(key) {
		m.keys = append(m.keys, key)
		m.probs = append(m.probs, pr)
	} else if i, ok := m.search(key); ok {
		m.probs[i] = pr
	} else {
		m.insertAt(i, key, pr)
	}
	m.invalidateSum()
}

// ForEachSorted visits every occupied hyper-bucket in lexicographic
// key order, so serialization and other order-sensitive consumers are
// deterministic across runs. Cells are stored in exactly this order,
// making the visit a zero-allocation linear scan.
func (m *Multi) ForEachSorted(fn func(key CellKey, pr float64)) {
	for i, k := range m.keys {
		fn(k.Unpack(), m.probs[i])
	}
}

// Total returns the current probability mass (1 after Normalize).
// Summation runs in sorted key order — the storage order — because
// float addition is not associative: an arbitrary iteration order
// would make the total, and everything normalized by it, drift at the
// bit level between runs.
func (m *Multi) Total() float64 {
	var t float64
	for _, v := range m.probs {
		t += v
	}
	return t
}

// Normalize scales cell masses to sum to one. It returns an error when
// the histogram is empty.
func (m *Multi) Normalize() error {
	t := m.Total()
	if t <= 0 {
		return fmt.Errorf("hist: cannot normalize empty multi-histogram")
	}
	for i, v := range m.probs {
		m.probs[i] = v / t
	}
	m.invalidateSum()
	return nil
}

// CheckNormalized verifies that the probability mass lies within tol
// of one, without rescaling anything. Deserializers of
// already-normalized joints use it instead of Normalize: dividing by
// a total that is only approximately one would perturb every cell at
// the bit level and break byte-identical round trips.
func (m *Multi) CheckNormalized(tol float64) error {
	t := m.Total()
	if math.Abs(t-1) > tol {
		return fmt.Errorf("hist: multi mass %v is not normalized (tolerance %v)", t, tol)
	}
	return nil
}

// MarginalOnto returns the joint marginal over the given dimensions,
// in the given order. dims must be distinct and in range.
func (m *Multi) MarginalOnto(dims []int) (*Multi, error) {
	bounds := make([][]float64, len(dims))
	for i, d := range dims {
		if d < 0 || d >= m.Dims() {
			return nil, fmt.Errorf("hist: marginal dim %d out of range", d)
		}
		bounds[i] = m.bounds[d]
	}
	out, err := NewMulti(bounds)
	if err != nil {
		return nil, err
	}
	// Sorted order: distinct cells fold onto shared marginal cells, so
	// the accumulation order must be reproducible (see Total). When
	// dims is a leading prefix of the source dims — the evaluator's
	// overlap marginal — projections arrive in non-decreasing order and
	// accumulate onto the tail cell directly, with no searching.
	prefix := true
	for i, d := range dims {
		if d != i {
			prefix = false
			break
		}
	}
	if prefix {
		for i, k := range m.keys {
			nk := k.MaskPrefix(len(dims))
			if n := len(out.keys); n > 0 && out.keys[n-1] == nk {
				out.probs[n-1] += m.probs[i]
			} else {
				out.keys = append(out.keys, nk)
				out.probs = append(out.probs, m.probs[i])
			}
		}
		return out, nil
	}
	for i, k := range m.keys {
		var nk PackedKey
		for j, d := range dims {
			nk = nk.WithDim(j, k.Dim(d))
		}
		out.addKey(nk, m.probs[i])
	}
	return out, nil
}

// SumHistogram flattens the joint into the distribution of the sum of
// its dimensions (Section 4.2): each hyper-bucket contributes the
// interval [Σ lo_d, Σ hi_d) with its probability, and overlapping
// intervals are rearranged into disjoint buckets. maxBuckets ≤ 0
// leaves the result uncompressed.
func (m *Multi) SumHistogram(maxBuckets int) (*Histogram, error) {
	if c := m.sum.Load(); c != nil && c.maxBuckets == maxBuckets {
		return c.h, nil
	}
	sc := rearrangePool.Get().(*rearrangeScratch)
	defer rearrangePool.Put(sc)
	bs, err := m.sumBuckets(sc, nil, maxBuckets)
	if err != nil {
		return nil, err
	}
	h := &Histogram{buckets: bs}
	// Racing fillers computed the identical histogram; whichever lands
	// is the same answer.
	m.sum.Store(&sumHistCache{maxBuckets: maxBuckets, h: h})
	return h, nil
}

// SumCDF returns SumHistogram(maxBuckets).CDF(x), bit for bit, and
// SumHistogram's error, without building or caching the histogram:
// the flattening runs in pooled scratch. A budget search bounds every
// prefix it explores with it and builds a histogram only for a path it
// keeps.
func (m *Multi) SumCDF(maxBuckets int, x float64) (float64, error) {
	if c := m.sum.Load(); c != nil && c.maxBuckets == maxBuckets {
		return c.h.CDF(x), nil
	}
	sc := rearrangePool.Get().(*rearrangeScratch)
	defer rearrangePool.Put(sc)
	bs, err := m.sumBuckets(sc, sc.bs, maxBuckets)
	if err != nil {
		return 0, err
	}
	sc.bs = bs[:0]
	return cdf(bs, x), nil
}

// sumBuckets is the one flattening behind SumHistogram and SumCDF: the
// hyper-buckets' sum intervals, in storage order, through
// rearrangeCompressed into bs (grown as needed), with the intervals
// and the rearrangement's workspace in sc.
func (m *Multi) sumBuckets(sc *rearrangeScratch, bs []Bucket, maxBuckets int) ([]Bucket, error) {
	if len(m.keys) == 0 {
		return nil, fmt.Errorf("hist: empty multi-histogram")
	}
	// Sorted (storage) order: rearrange accumulates overlapping
	// intervals, so the input sequence must be reproducible (see Total).
	ivals := sc.wi[:0]
	if cap(ivals) < len(m.keys) {
		ivals = make([]Bucket, 0, len(m.keys))
	}
	for i, k := range m.keys {
		var lo, hi float64
		for d := 0; d < m.Dims(); d++ {
			b := m.bounds[d][k.Dim(d):]
			lo += b[0]
			hi += b[1]
		}
		ivals = append(ivals, Bucket{Lo: lo, Hi: hi, Pr: m.probs[i]})
	}
	sc.wi = ivals
	return rearrangeCompressed(sc, bs, ivals, maxBuckets)
}

// RemapDim rebuilds dimension d onto newBounds, a strictly increasing
// boundary set that must contain every existing boundary of d (it may
// extend beyond the current support; the extension cells simply stay
// empty), so it both refines a grid and aligns histograms with
// *different* supports onto one shared grid, which the Equation 2
// evaluators need when two factors disagree about an edge's cost
// range. When newBounds equals the current boundary set the receiver
// itself is returned (the evaluator's common case); treat the result
// as read-only, and do not modify newBounds afterwards — the result
// references it.
func (m *Multi) RemapDim(d int, newBounds []float64) (*Multi, error) {
	if d < 0 || d >= m.Dims() {
		return nil, fmt.Errorf("hist: remap dim %d out of range", d)
	}
	t := remapPool.Get().(*RemapTable)
	defer remapPool.Put(t)
	if err := t.build(m.bounds[d], newBounds); err != nil {
		return nil, err
	}
	return m.RemapDimTable(d, t)
}

// RemapTable is the precomputed index translation of one RemapDim: for
// every old bucket, the run of new buckets it splits into and the
// width fraction of each, so applying the remap — possibly to several
// histograms sharing the boundary set, as the evaluator's overlap
// alignment does — never re-derives spans or fractions per cell.
type RemapTable struct {
	oldBounds, newBounds []float64
	identity             bool
	first                []int     // first[i]: first new bucket of old bucket i
	off                  []int     // fracs[off[i]:off[i+1]] belong to old bucket i
	fracs                []float64 // width fraction of each new sub-bucket
}

// remapPool recycles the tables RemapDim builds, uses once and drops:
// the evaluator aligns both sides of every overlap dimension of every
// multiply, nearly always onto the grid they already share.
var remapPool = sync.Pool{New: func() any { return new(RemapTable) }}

// build validates that newBounds contains every boundary of old and
// precomputes the per-bucket translation spans and fractions, reusing
// the table's storage.
func (t *RemapTable) build(old, newBounds []float64) error {
	// Every old boundary must appear in newBounds so old cells map to
	// whole runs of new cells.
	for _, b := range old {
		i := sort.SearchFloat64s(newBounds, b)
		if i >= len(newBounds) || newBounds[i] != b {
			return fmt.Errorf("hist: remap boundary %v missing from new grid", b)
		}
	}
	// Containment plus equal length means the sets are identical.
	t.oldBounds, t.newBounds, t.identity = old, newBounds, len(old) == len(newBounds)
	if t.identity {
		return nil
	}
	nb := len(old) - 1
	t.first = slices.Grow(t.first[:0], nb)[:nb]
	t.off = slices.Grow(t.off[:0], nb+1)[:nb+1]
	t.off[0] = 0
	for i := 0; i < nb; i++ {
		first := sort.SearchFloat64s(newBounds, old[i])
		last := sort.SearchFloat64s(newBounds, old[i+1]) - 1
		t.first[i] = first
		t.off[i+1] = t.off[i] + (last - first + 1)
	}
	t.fracs = slices.Grow(t.fracs[:0], t.off[nb])[:t.off[nb]]
	for i := 0; i < nb; i++ {
		oldLo, oldHi := old[i], old[i+1]
		for j, ni := t.off[i], t.first[i]; j < t.off[i+1]; j, ni = j+1, ni+1 {
			t.fracs[j] = (newBounds[ni+1] - newBounds[ni]) / (oldHi - oldLo)
		}
	}
	return nil
}

// RemapDimTable applies a precomputed remap table to dimension d. The
// identity table returns the receiver unchanged (read-only contract).
//
// The rebuild is a single linear pass that emits cells already in
// sorted order: cells sharing key[0..d] form contiguous sub-runs in
// the sorted input, each sub-run expands to its new-bucket span in
// ascending span order, and distinct sub-runs expand to disjoint,
// ordered key ranges — so no sorting and no per-cell searching happen.
func (m *Multi) RemapDimTable(d int, t *RemapTable) (*Multi, error) {
	if d < 0 || d >= m.Dims() {
		return nil, fmt.Errorf("hist: remap dim %d out of range", d)
	}
	if !floatsEqual(m.bounds[d], t.oldBounds) {
		return nil, fmt.Errorf("hist: remap table built for different boundaries on dim %d", d)
	}
	if t.identity {
		return m, nil
	}
	out := newMultiFromPool(len(m.bounds), len(m.keys)+len(m.keys)/2)
	copy(out.bounds, m.bounds)
	out.bounds[d] = t.newBounds
	n := len(m.keys)
	for i := 0; i < n; {
		// Sub-run [i, j): cells identical through dimension d.
		j := i + 1
		for j < n && m.keys[i].PrefixEq(m.keys[j], d+1) {
			j++
		}
		od := int(m.keys[i].Dim(d))
		base, span := t.off[od], t.off[od+1]-t.off[od]
		for s := 0; s < span; s++ {
			frac := t.fracs[base+s]
			ni := uint16(t.first[od] + s)
			for c := i; c < j; c++ {
				out.keys = append(out.keys, m.keys[c].WithDim(d, ni))
				out.probs = append(out.probs, m.probs[c]*frac)
			}
		}
		i = j
	}
	return out, nil
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i, x := range a {
		if b[i] != x {
			return false
		}
	}
	return true
}

// UnionBounds merges two boundary sets into one strictly increasing
// set covering both supports. Equal inputs return the first operand
// itself — the evaluator's common case — so the result may alias an
// input; treat it as read-only.
func UnionBounds(a, b []float64) []float64 {
	if floatsEqual(a, b) && len(a) > 0 {
		return a
	}
	merged := make([]float64, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	sort.Float64s(merged)
	return dedupFloats(merged)
}

// FromSamplesConfig controls multi-dimensional histogram construction.
type FromSamplesConfig struct {
	Resolution float64
	Auto       AutoConfig
	// FixedBuckets, when positive, skips the Auto selection and uses
	// exactly this many V-Optimal buckets per dimension (the paper's
	// Sta-b baseline).
	FixedBuckets int
}

// NewMultiFromSamples builds a multi-dimensional histogram from joint
// cost observations, one row per trajectory and one column per edge
// (Section 3.2): the bucket count of each dimension is chosen by the
// Auto method on that dimension's marginal samples, V-Optimal places
// the boundaries, and hyper-bucket probabilities are filled from the
// joint observations.
func NewMultiFromSamples(rows [][]float64, cfg FromSamplesConfig) (*Multi, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("hist: no joint samples")
	}
	d := len(rows[0])
	if d == 0 || d > MaxDims {
		return nil, fmt.Errorf("hist: %d dimensions out of range [1,%d]", d, MaxDims)
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("hist: row %d has %d values, want %d", i, len(r), d)
		}
	}
	bounds := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r[j]
		}
		var h *Histogram
		var err error
		if cfg.FixedBuckets > 0 {
			h, err = StaticHistogram(col, cfg.Resolution, cfg.FixedBuckets)
		} else {
			h, _, err = AutoHistogram(col, cfg.Resolution, cfg.Auto)
		}
		if err != nil {
			return nil, fmt.Errorf("hist: dim %d: %w", j, err)
		}
		bd := make([]float64, 0, h.NumBuckets()+1)
		for _, b := range h.Buckets() {
			bd = append(bd, b.Lo)
		}
		bd = append(bd, h.Max())
		bounds[j] = bd
	}
	m, err := NewMulti(bounds)
	if err != nil {
		return nil, err
	}
	snapped := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			snapped[j] = math.Round(v/cfg.Resolution) * cfg.Resolution
		}
		if !m.Add(snapped, 1) {
			// A snapped value can only leave the grid through floating
			// point rounding at the extremes; clamp it in.
			for j := range snapped {
				bd := bounds[j]
				if snapped[j] < bd[0] {
					snapped[j] = bd[0]
				}
				if snapped[j] >= bd[len(bd)-1] {
					snapped[j] = bd[len(bd)-1] - 1e-9
				}
			}
			m.Add(snapped, 1)
		}
	}
	if err := m.Normalize(); err != nil {
		return nil, err
	}
	return m, nil
}
