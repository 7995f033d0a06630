package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustHist(t testing.TB, bs []Bucket) *Histogram {
	t.Helper()
	h, err := FromBuckets(bs)
	if err != nil {
		t.Fatalf("FromBuckets: %v", err)
	}
	return h
}

func TestFromBucketsValidation(t *testing.T) {
	cases := []struct {
		name string
		bs   []Bucket
	}{
		{"empty", nil},
		{"zero width", []Bucket{{Lo: 1, Hi: 1, Pr: 1}}},
		{"negative width", []Bucket{{Lo: 2, Hi: 1, Pr: 1}}},
		{"negative prob", []Bucket{{Lo: 0, Hi: 1, Pr: -0.5}}},
		{"nan prob", []Bucket{{Lo: 0, Hi: 1, Pr: math.NaN()}}},
		{"overlap", []Bucket{{Lo: 0, Hi: 2, Pr: 0.5}, {Lo: 1, Hi: 3, Pr: 0.5}}},
		{"out of order", []Bucket{{Lo: 5, Hi: 6, Pr: 0.5}, {Lo: 0, Hi: 1, Pr: 0.5}}},
		{"zero mass", []Bucket{{Lo: 0, Hi: 1, Pr: 0}}},
	}
	for _, c := range cases {
		if _, err := FromBuckets(c.bs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFromBucketsNormalizes(t *testing.T) {
	h := mustHist(t, []Bucket{{Lo: 0, Hi: 1, Pr: 2}, {Lo: 1, Hi: 2, Pr: 2}})
	if !almostEq(h.CDF(2), 1, 1e-12) {
		t.Fatalf("total mass = %v, want 1", h.CDF(2))
	}
	if !almostEq(h.Buckets()[0].Pr, 0.5, 1e-12) {
		t.Fatal("probabilities not normalized")
	}
}

func TestHistogramMoments(t *testing.T) {
	// Uniform on [0, 10): mean 5, variance 100/12.
	h := mustHist(t, []Bucket{{Lo: 0, Hi: 10, Pr: 1}})
	if !almostEq(h.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", h.Mean())
	}
	if !almostEq(h.Variance(), 100.0/12, 1e-9) {
		t.Errorf("Variance = %v, want %v", h.Variance(), 100.0/12)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	h := mustHist(t, []Bucket{
		{Lo: 0, Hi: 10, Pr: 0.25},
		{Lo: 20, Hi: 30, Pr: 0.5},
		{Lo: 30, Hi: 40, Pr: 0.25},
	})
	if got := h.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v", got)
	}
	if got := h.CDF(100); !almostEq(got, 1, 1e-12) {
		t.Errorf("CDF(100) = %v", got)
	}
	if got := h.CDF(15); !almostEq(got, 0.25, 1e-12) { // in the gap
		t.Errorf("CDF(15) = %v, want 0.25", got)
	}
	if got := h.CDF(25); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("CDF(25) = %v, want 0.5", got)
	}
	f := func(q float64) bool {
		q = math.Mod(math.Abs(q), 1)
		x := h.Quantile(q)
		c := h.CDF(x)
		return c >= q-1e-9
	}
	if err := quick.Check(f, fixedQuick(0, 14)); err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := h.Quantile(1); got != 40 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestDensityAndMass(t *testing.T) {
	h := mustHist(t, []Bucket{{Lo: 0, Hi: 10, Pr: 0.5}, {Lo: 10, Hi: 30, Pr: 0.5}})
	if got := h.MassOn(5, 15); !almostEq(got, 0.25+0.125, 1e-12) {
		t.Errorf("MassOn(5,15) = %v", got)
	}
	if got := h.MassOn(15, 5); got != 0 {
		t.Errorf("MassOn reversed = %v", got)
	}
}

// TestPaperExampleFigure7 asserts the exact worked example of the
// paper's Section 4.2 / Figure 7: a 2×2 joint histogram over
// (ce1, ce2) flattens to the five-bucket marginal cost distribution
// with probabilities 0.1000, 0.1625, 0.2292, 0.3833, 0.1250.
func TestPaperExampleFigure7(t *testing.T) {
	m, err := NewMulti([][]float64{
		{20, 30, 50}, // ce1 buckets [20,30), [30,50)
		{20, 40, 60}, // ce2 buckets [20,40), [40,60)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCell([]int{0, 0}, 0.30) // ce1∈[20,30), ce2∈[20,40)
	m.SetCell([]int{1, 0}, 0.25) // ce1∈[30,50), ce2∈[20,40)
	m.SetCell([]int{0, 1}, 0.20) // ce1∈[20,30), ce2∈[40,60)
	m.SetCell([]int{1, 1}, 0.25) // ce1∈[30,50), ce2∈[40,60)

	h, err := m.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bucket{
		{Lo: 40, Hi: 50, Pr: 0.1000},
		{Lo: 50, Hi: 60, Pr: 0.1625},
		{Lo: 60, Hi: 70, Pr: 1.0/3*0.30/3.0*0 + 0.2292}, // literal below
		{Lo: 70, Hi: 90, Pr: 0.3833},
		{Lo: 90, Hi: 110, Pr: 0.1250},
	}
	// The paper rounds to 4 decimals; recompute exact values:
	// [60,70): 0.3/3 + 0.25/4 + 0.2/3 = 0.1 + 0.0625 + 0.0666..
	want[2].Pr = 0.30/3 + 0.25/4 + 0.20/3
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d (%v), want %d", len(got), h, len(want))
	}
	for i := range want {
		if !almostEq(got[i].Lo, want[i].Lo, 1e-9) || !almostEq(got[i].Hi, want[i].Hi, 1e-9) {
			t.Errorf("bucket %d range [%v,%v), want [%v,%v)", i, got[i].Lo, got[i].Hi, want[i].Lo, want[i].Hi)
		}
		if !almostEq(got[i].Pr, want[i].Pr, 5e-4) {
			t.Errorf("bucket %d pr = %v, want %v", i, got[i].Pr, want[i].Pr)
		}
	}
	if !almostEq(h.CDF(1e9), 1, 1e-9) {
		t.Error("flattened mass must be 1")
	}
}

func TestRearrangedMatchesPaperIntermediate(t *testing.T) {
	// The intermediate table of Figure 7: four interval masses.
	h, err := Rearranged([]Bucket{
		{Lo: 40, Hi: 70, Pr: 0.30},
		{Lo: 50, Hi: 90, Pr: 0.25},
		{Lo: 60, Hi: 90, Pr: 0.20},
		{Lo: 70, Hi: 110, Pr: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worked values from the paper's prose: [40,50)=0.1, then the
	// final table.
	if got := h.MassOn(40, 50); !almostEq(got, 0.1, 1e-9) {
		t.Errorf("[40,50) = %v, want 0.1", got)
	}
	if got := h.MassOn(70, 90); !almostEq(got, 0.3833, 5e-4) {
		t.Errorf("[70,90) = %v, want 0.3833", got)
	}
	if got := h.MassOn(90, 110); !almostEq(got, 0.125, 1e-9) {
		t.Errorf("[90,110) = %v, want 0.125", got)
	}
}

func TestConvolvePointMasses(t *testing.T) {
	a := Point(10, 1)
	b := Point(20, 1)
	c := Convolve(a, b)
	if c.Min() != 30 || c.Max() != 32 {
		t.Fatalf("support = [%v,%v), want [30,32)", c.Min(), c.Max())
	}
	if !almostEq(c.Mean(), 31, 1e-9) {
		t.Fatalf("mean = %v, want 31", c.Mean())
	}
}

func TestConvolveMeanAdds(t *testing.T) {
	// Property: E[X+Y] = E[X] + E[Y] regardless of bucket layouts.
	rnd := rand.New(rand.NewSource(7))
	randHist := func() *Histogram {
		n := 1 + rnd.Intn(4)
		bs := make([]Bucket, 0, n)
		lo := rnd.Float64() * 10
		for i := 0; i < n; i++ {
			w := 1 + rnd.Float64()*20
			bs = append(bs, Bucket{Lo: lo, Hi: lo + w, Pr: rnd.Float64() + 0.1})
			lo += w + rnd.Float64()*5
		}
		return MustFromBuckets(bs)
	}
	for i := 0; i < 100; i++ {
		x, y := randHist(), randHist()
		c := Convolve(x, y)
		if !almostEq(c.Mean(), x.Mean()+y.Mean(), 1e-6) {
			t.Fatalf("mean: %v + %v != %v", x.Mean(), y.Mean(), c.Mean())
		}
		if !almostEq(c.CDF(math.Inf(1)), 1, 1e-9) {
			t.Fatal("convolution mass != 1")
		}
		if c.Min() < x.Min()+y.Min()-1e-9 || c.Max() > x.Max()+y.Max()+1e-9 {
			t.Fatal("convolution support escapes sum of supports")
		}
	}
}

func TestConvolveAll(t *testing.T) {
	hs := []*Histogram{Point(1, 1), Point(2, 1), Point(3, 1)}
	c := ConvolveAll(hs)
	if !almostEq(c.Mean(), 1.5+2.5+3.5, 1e-9) {
		t.Fatalf("mean = %v", c.Mean())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ConvolveAll(nil) should panic")
		}
	}()
	ConvolveAll(nil)
}

func TestCompress(t *testing.T) {
	bs := make([]Bucket, 20)
	for i := range bs {
		bs[i] = Bucket{Lo: float64(i), Hi: float64(i + 1), Pr: 1.0 / 20}
	}
	h := mustHist(t, bs)
	c := h.Compress(5)
	if c.NumBuckets() > 5 {
		t.Fatalf("compressed to %d buckets, want ≤ 5", c.NumBuckets())
	}
	if !almostEq(c.Mean(), h.Mean(), 1e-9) {
		t.Fatalf("compression moved mean: %v vs %v", c.Mean(), h.Mean())
	}
	if !almostEq(c.CDF(math.Inf(1)), 1, 1e-12) {
		t.Fatal("compression lost mass")
	}
	// No-op cases.
	if h.Compress(100) != h {
		t.Error("compress with large cap should be identity")
	}
	if h.Compress(0) != h {
		t.Error("compress with non-positive cap should be identity")
	}
}

func TestRearrangePreservesMassAndMean(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rnd.Intn(8)
		ivals := make([]Bucket, n)
		var mass, mean float64
		for i := range ivals {
			lo := rnd.Float64() * 50
			w := 1 + rnd.Float64()*30
			pr := rnd.Float64() + 0.05
			ivals[i] = Bucket{Lo: lo, Hi: lo + w, Pr: pr}
			mass += pr
			mean += pr * (lo + w/2)
		}
		h, err := Rearranged(ivals)
		if err != nil {
			t.Fatal(err)
		}
		// Rearranged normalizes; compare normalized mean.
		if !almostEq(h.Mean(), mean/mass, 1e-6) {
			t.Fatalf("trial %d: mean %v, want %v", trial, h.Mean(), mean/mass)
		}
		// Buckets disjoint and ordered by construction of FromBuckets.
	}
}

func TestSquaredErrorZeroForExactHistogram(t *testing.T) {
	// A histogram with one bucket per distinct value reproduces the raw
	// distribution exactly, so SE must be ~0.
	samples := []float64{10, 10, 20, 30, 30, 30}
	raw, err := NewRaw(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := VOptimal(raw, raw.NumDistinct())
	if err != nil {
		t.Fatal(err)
	}
	if se := h.SquaredError(raw); se > 1e-18 {
		t.Fatalf("SE = %v, want 0", se)
	}
}

func TestPointHistogram(t *testing.T) {
	h := Point(42, 1)
	if h.Min() != 42 || h.Max() != 43 {
		t.Fatalf("support [%v,%v)", h.Min(), h.Max())
	}
	if !almostEq(h.CDF(43), 1, 1e-12) {
		t.Fatal("point mass != 1")
	}
}

func TestHistogramString(t *testing.T) {
	h := mustHist(t, []Bucket{{Lo: 0, Hi: 1, Pr: 1}})
	if h.String() == "" {
		t.Fatal("empty string")
	}
}

func TestProbWithinAlias(t *testing.T) {
	h := mustHist(t, []Bucket{{Lo: 0, Hi: 10, Pr: 1}})
	if h.ProbWithin(5) != h.CDF(5) {
		t.Fatal("ProbWithin must equal CDF")
	}
}

func TestSampleWithinSupport(t *testing.T) {
	h := mustHist(t, []Bucket{{Lo: 5, Hi: 10, Pr: 0.4}, {Lo: 20, Hi: 21, Pr: 0.6}})
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := h.Quantile(rnd.Float64()) // inverse-transform sampling
		if v < 5 || v > 21 {
			t.Fatalf("sample %v outside support", v)
		}
		if v >= 10 && v < 20 {
			t.Fatalf("sample %v in support gap", v)
		}
	}
}

func TestDominates(t *testing.T) {
	fast := mustHist(t, []Bucket{{Lo: 10, Hi: 20, Pr: 1}})
	slow := mustHist(t, []Bucket{{Lo: 30, Hi: 40, Pr: 1}})
	if !fast.Dominates(slow) {
		t.Fatal("strictly faster histogram must dominate")
	}
	if slow.Dominates(fast) {
		t.Fatal("slower histogram must not dominate")
	}
	// Self-dominance (weak dominance) holds.
	if !fast.Dominates(fast) {
		t.Fatal("histogram must dominate itself")
	}
	// Crossing CDFs: neither dominates.
	tight := mustHist(t, []Bucket{{Lo: 20, Hi: 25, Pr: 1}})
	wide := mustHist(t, []Bucket{{Lo: 10, Hi: 40, Pr: 1}})
	if tight.Dominates(wide) || wide.Dominates(tight) {
		t.Fatal("crossing CDFs must be incomparable")
	}
}
