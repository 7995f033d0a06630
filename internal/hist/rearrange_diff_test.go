package hist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Differential tests for the rearrangement sweep and the compression
// cost cache: both were rewritten for speed with the explicit claim
// that every output byte is unchanged. The originals — a full interval
// rescan per elementary cell, and a full adjacent-pair rescan per
// merge — are small enough to keep here as oracles.

// rearrangeRef is the pre-sweep rearrangement core: for every
// elementary cell, rescan all intervals in sorted order and accumulate
// the overlapping shares. The sweep's compaction preserves index
// order, so its per-cell accumulation must match this bit for bit.
func rearrangeRef(ivals []Bucket) ([]Bucket, error) {
	if len(ivals) == 0 {
		return nil, nil
	}
	var cuts []float64
	for _, iv := range ivals {
		if !(iv.Hi > iv.Lo) {
			return nil, nil
		}
		cuts = append(cuts, iv.Lo, iv.Hi)
	}
	sort.Float64s(cuts)
	cuts = dedupFloats(cuts)
	// The exact sort rearrangeInto runs (slices.SortFunc is unstable, so
	// a different-but-equivalent sort could permute equal-lo intervals
	// and change the accumulation order).
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
	var bs []Bucket
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		var pr float64
		for _, iv := range ivals {
			if iv.Lo < hi && iv.Hi > lo {
				pr += iv.Pr * (hi - lo) / (iv.Hi - iv.Lo)
			}
		}
		if pr > 0 {
			bs = append(bs, Bucket{Lo: lo, Hi: hi, Pr: pr})
		}
	}
	return mergeEqualDensity(bs), nil
}

// compressRef is the pre-cache merge loop: rescan every adjacent pair
// for the cheapest merge each round, first strictly smaller wins.
func compressRef(bs []Bucket, maxBuckets int) []Bucket {
	for len(bs) > maxBuckets {
		bestIdx, bestCost := 0, mergeCost(bs[0], bs[1])
		for i := 1; i+1 < len(bs); i++ {
			if c := mergeCost(bs[i], bs[i+1]); c < bestCost {
				bestCost, bestIdx = c, i
			}
		}
		a, b := bs[bestIdx], bs[bestIdx+1]
		bs[bestIdx] = Bucket{Lo: a.Lo, Hi: b.Hi, Pr: a.Pr + b.Pr}
		bs = append(bs[:bestIdx+1], bs[bestIdx+2:]...)
	}
	return bs
}

func randomIvals(rnd *rand.Rand, n int) []Bucket {
	ivals := make([]Bucket, n)
	for i := range ivals {
		lo := float64(rnd.Intn(40)) * 0.5
		w := 0.5 + float64(rnd.Intn(10))*0.5
		ivals[i] = Bucket{Lo: lo, Hi: lo + w, Pr: 0.01 + rnd.Float64()}
	}
	return ivals
}

// adversarialIvals is randomIvals plus what the evaluator's folds
// produce and a cut-set merge could get wrong: point intervals one
// 1e-9 wide (a degenerate accumulation), intervals repeating an
// earlier lo or ending exactly where another starts, exact duplicates,
// and zero-mass intervals.
func adversarialIvals(rnd *rand.Rand, n int) []Bucket {
	ivals := randomIvals(rnd, n)
	for i := range ivals {
		switch rnd.Intn(6) {
		case 0:
			ivals[i].Hi = ivals[i].Lo + 1e-9
		case 1:
			if i > 0 {
				ivals[i].Lo = ivals[rnd.Intn(i)].Lo
				ivals[i].Hi = ivals[i].Lo + 0.5 + float64(rnd.Intn(10))*0.5
			}
		case 2:
			if i > 0 {
				w := ivals[i].Hi - ivals[i].Lo
				ivals[i].Lo = ivals[rnd.Intn(i)].Hi
				ivals[i].Hi = ivals[i].Lo + w
			}
		case 3:
			if i > 0 {
				ivals[i] = ivals[rnd.Intn(i)]
			}
		case 4:
			ivals[i].Pr = 0
		}
	}
	ivals[rnd.Intn(n)].Pr = 1 // never all-zero
	return ivals
}

func sameBucketsBits(t *testing.T, got, want []Bucket, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Lo) != math.Float64bits(want[i].Lo) ||
			math.Float64bits(got[i].Hi) != math.Float64bits(want[i].Hi) ||
			math.Float64bits(got[i].Pr) != math.Float64bits(want[i].Pr) {
			t.Fatalf("%s: bucket %d differs at the bit level: %+v vs %+v",
				what, i, got[i], want[i])
		}
	}
}

// INVARIANT: the live-set sweep emits byte-identical buckets to the
// full-rescan rearrangement it replaced.
func TestRearrangeSweepMatchesRescan(t *testing.T) {
	rnd := rand.New(rand.NewSource(51))
	sc := &rearrangeScratch{}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rnd.Intn(40)
		ivals := randomIvals(rnd, n)
		if trial%2 == 1 {
			ivals = adversarialIvals(rnd, n)
		}
		ref := append([]Bucket(nil), ivals...)
		got, err := rearrangeInto(sc, sc.bs, ivals)
		if err != nil {
			t.Fatal(err)
		}
		sc.bs = got[:0]
		want, err := rearrangeRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		sameBucketsBits(t, got, want, "rearrange")
	}
}

// INVARIANT: the incremental pair-cost cache reproduces the rescan
// loop's merge sequence — identical buckets after compression, with
// and without pooled scratch.
func TestCompressCacheMatchesRescan(t *testing.T) {
	rnd := rand.New(rand.NewSource(52))
	sc := &rearrangeScratch{}
	for trial := 0; trial < 500; trial++ {
		n := 2 + rnd.Intn(60)
		bs := make([]Bucket, 0, n)
		lo := 0.0
		for i := 0; i < n; i++ {
			if rnd.Intn(4) == 0 {
				lo += 0.25 // gaps exercise the smear term of mergeCost
			}
			w := 0.25 + float64(rnd.Intn(8))*0.25
			bs = append(bs, Bucket{Lo: lo, Hi: lo + w, Pr: 0.01 + rnd.Float64()})
			lo += w
		}
		maxBuckets := 1 + rnd.Intn(n)
		want := compressRef(append([]Bucket(nil), bs...), maxBuckets)
		got := compressBucketsInto(append([]Bucket(nil), bs...), maxBuckets, sc)
		sameBucketsBits(t, got, want, "compress(sc)")
		got2 := compressBuckets(append([]Bucket(nil), bs...), maxBuckets)
		sameBucketsBits(t, got2, want, "compress(nil)")
	}
}

// INVARIANT: RearrangedCuts returns the boundaries of
// Rearranged(...).Compress(max), bit for bit — the evaluator's pooled
// re-bucketing against the public composition it stands for.
func TestRearrangedCutsMatchesComposition(t *testing.T) {
	rnd := rand.New(rand.NewSource(53))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rnd.Intn(40)
		ivals := adversarialIvals(rnd, n)
		for _, maxBuckets := range []int{0, 1, 1 + rnd.Intn(n), 48} {
			got, err := RearrangedCuts(nil, append([]Bucket(nil), ivals...), maxBuckets)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Rearranged(append([]Bucket(nil), ivals...))
			if err != nil {
				t.Fatal(err)
			}
			if maxBuckets > 0 {
				h = h.Compress(maxBuckets)
			}
			bs := h.Buckets()
			want := make([]float64, 0, len(bs)+1)
			for _, b := range bs {
				want = append(want, b.Lo)
			}
			want = append(want, bs[len(bs)-1].Hi)
			if len(got) != len(want) {
				t.Fatalf("trial %d max %d: %d cuts, composition has %d", trial, maxBuckets, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d max %d: cut %d is %v, composition has %v", trial, maxBuckets, i, got[i], want[i])
				}
			}
		}
	}
}

// INVARIANT: SumHistogram(max) is Rearranged(sum intervals).Compress(max)
// bit for bit, and SumCDF(max, x) is its CDF(x) bit for bit, error
// included — the one flattening behind the chain's answer and a
// search's pruning bound, against the public composition it stands
// for. SumCDF is read cold (through the scratch) and warm (through the
// cached histogram).
func TestSumHistogramAndSumCDFMatchComposition(t *testing.T) {
	rnd := rand.New(rand.NewSource(59))
	for trial := 0; trial < 400; trial++ {
		m := randomMulti(rnd)
		var ivals []Bucket
		m.ForEachSorted(func(k CellKey, pr float64) {
			var lo, hi float64
			for d := 0; d < m.Dims(); d++ {
				l, u := m.BucketRange(d, int(k[d]))
				lo += l
				hi += u
			}
			ivals = append(ivals, Bucket{Lo: lo, Hi: hi, Pr: pr})
		})
		want, err := Rearranged(ivals)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxBuckets := range []int{0, 1, 2 + rnd.Intn(6), 64} {
			want := want
			if maxBuckets > 0 {
				want = want.Compress(maxBuckets)
			}
			xs := []float64{math.Inf(-1), want.Min(), want.Max(), math.Inf(1), math.NaN()}
			for i := 0; i < 6; i++ {
				xs = append(xs, want.Min()+rnd.Float64()*(want.Max()-want.Min()))
			}
			for _, b := range want.Buckets() {
				xs = append(xs, b.Lo, b.Hi)
			}
			m.invalidateSum()
			for _, x := range xs {
				p, err := m.SumCDF(maxBuckets, x)
				if err != nil || math.Float64bits(p) != math.Float64bits(want.CDF(x)) {
					t.Fatalf("trial %d max %d: cold SumCDF(%v) = %v (%v), composition %v", trial, maxBuckets, x, p, err, want.CDF(x))
				}
			}
			got, err := m.SumHistogram(maxBuckets)
			if err != nil {
				t.Fatal(err)
			}
			sameBucketsBits(t, got.Buckets(), want.Buckets(), "SumHistogram")
			for _, x := range xs {
				if p, err := m.SumCDF(maxBuckets, x); err != nil || math.Float64bits(p) != math.Float64bits(want.CDF(x)) {
					t.Fatalf("trial %d max %d: warm SumCDF(%v) = %v (%v), composition %v", trial, maxBuckets, x, p, err, want.CDF(x))
				}
			}
		}
	}
	empty := mustMulti(t, [][]float64{{0, 1}})
	_, errH := empty.SumHistogram(4)
	_, errC := empty.SumCDF(4, 0.5)
	if errH == nil || errC == nil || errH.Error() != errC.Error() {
		t.Fatalf("empty joint: SumHistogram %v, SumCDF %v", errH, errC)
	}
}
