package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func uniformHist(t testing.TB, lo, hi float64) *hist.Histogram {
	t.Helper()
	h, err := hist.FromBuckets([]hist.Bucket{{Lo: lo, Hi: hi, Pr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestKLSelfIsZero(t *testing.T) {
	h := uniformHist(t, 0, 10)
	if got := KLHistograms(h, h); got > 1e-9 {
		t.Fatalf("KL(P‖P) = %v, want ~0", got)
	}
}

func TestKLAsymmetricAndPositive(t *testing.T) {
	p := uniformHist(t, 0, 5)
	q := uniformHist(t, 0, 10)
	pq := KLHistograms(p, q)
	qp := KLHistograms(q, p)
	if pq <= 0 {
		t.Fatalf("KL(p‖q) = %v, want > 0", pq)
	}
	// KL(uniform[0,5] ‖ uniform[0,10]) = log 2 exactly.
	if !almostEq(pq, math.Log(2), 1e-6) {
		t.Fatalf("KL = %v, want log 2 = %v", pq, math.Log(2))
	}
	// q has mass where p has none; smoothing keeps it finite but large.
	if qp <= pq {
		t.Fatalf("KL(q‖p) = %v should exceed KL(p‖q) = %v", qp, pq)
	}
	if math.IsInf(qp, 1) {
		t.Fatal("smoothed KL must be finite")
	}
}

func TestKLDisjointSupportsFinite(t *testing.T) {
	p := uniformHist(t, 0, 1)
	q := uniformHist(t, 100, 101)
	kl := KLHistograms(p, q)
	if math.IsInf(kl, 1) || math.IsNaN(kl) {
		t.Fatalf("KL = %v, want finite", kl)
	}
	if kl < 5 {
		t.Fatalf("KL = %v, want large for disjoint supports", kl)
	}
}

func TestKLMoreSimilarIsSmaller(t *testing.T) {
	p := uniformHist(t, 0, 10)
	close := uniformHist(t, 0, 11)
	far := uniformHist(t, 0, 30)
	if KLHistograms(p, close) >= KLHistograms(p, far) {
		t.Fatal("closer distribution should have smaller divergence")
	}
}

func TestKLRawVsHistogramExactFit(t *testing.T) {
	samples := []float64{10, 10, 11, 12, 12, 12}
	raw, err := hist.NewRaw(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := hist.VOptimal(raw, raw.NumDistinct())
	if err != nil {
		t.Fatal(err)
	}
	if got := KLRawVsHistogram(raw, exact); got > 1e-6 {
		t.Fatalf("KL vs exact histogram = %v, want ~0", got)
	}
	coarse, err := hist.VOptimal(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if KLRawVsHistogram(raw, coarse) <= KLRawVsHistogram(raw, exact) {
		t.Fatal("coarser histogram must have larger divergence")
	}
}

func TestEntropyHistogramUniform(t *testing.T) {
	// Differential entropy of uniform [0, w) is log w.
	for _, w := range []float64{1, 2, 10, 100} {
		h := uniformHist(t, 0, w)
		if got := EntropyHistogram(h); !almostEq(got, math.Log(w), 1e-9) {
			t.Errorf("entropy(U[0,%v)) = %v, want %v", w, got, math.Log(w))
		}
	}
}

func TestEntropyMoreConcentratedIsSmaller(t *testing.T) {
	wide := uniformHist(t, 0, 100)
	narrow := uniformHist(t, 0, 10)
	if EntropyHistogram(narrow) >= EntropyHistogram(wide) {
		t.Fatal("narrow distribution must have lower entropy")
	}
}

// marginal is dimension d's marginal distribution: the joint projected
// onto d and flattened.
func marginal(t *testing.T, m *hist.Multi, d int) *hist.Histogram {
	t.Helper()
	p, err := m.MarginalOnto([]int{d})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.SumHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEntropyMultiMatchesProductOfIndependents(t *testing.T) {
	// For independent dims, joint entropy = sum of marginal entropies.
	m, err := hist.NewMulti([][]float64{{0, 10, 20}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	// p(x) = (0.3, 0.7), y uniform single bucket.
	m.SetCell([]int{0, 0}, 0.3)
	m.SetCell([]int{1, 0}, 0.7)
	joint := EntropyMulti(m)
	want := EntropyHistogram(marginal(t, m, 0)) + EntropyHistogram(marginal(t, m, 1))
	if !almostEq(joint, want, 1e-9) {
		t.Fatalf("joint entropy %v, want %v", joint, want)
	}
}

func TestEntropyMultiDependenceReducesEntropy(t *testing.T) {
	bounds := [][]float64{{0, 1, 2}, {0, 1, 2}}
	indep, _ := hist.NewMulti(bounds)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			indep.SetCell([]int{i, j}, 0.25)
		}
	}
	dep, _ := hist.NewMulti(bounds)
	dep.SetCell([]int{0, 0}, 0.5)
	dep.SetCell([]int{1, 1}, 0.5)
	if EntropyMulti(dep) >= EntropyMulti(indep) {
		t.Fatal("perfectly correlated joint must have lower entropy")
	}
	// Marginals agree, so the difference is purely dependency.
	if !almostEq(EntropyHistogram(marginal(t, dep, 0)), EntropyHistogram(marginal(t, indep, 0)), 1e-12) {
		t.Fatal("marginals should match")
	}
}

func TestFitGaussianRecoversParameters(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = 100 + rnd.NormFloat64()*15
	}
	fit, err := FitGaussian(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mean-100) > 0.5 {
		t.Fatalf("mean = %v", fit.Mean)
	}
	// CDF at mean = 0.5; at mean+1.96σ ≈ 0.975.
	if !almostEq(fit.CDF(fit.Mean), 0.5, 0.01) {
		t.Fatalf("CDF(mean) = %v", fit.CDF(fit.Mean))
	}
	if !almostEq(fit.CDF(100+1.96*15), 0.975, 0.01) {
		t.Fatalf("CDF(mean+1.96σ) = %v", fit.CDF(100+1.96*15))
	}
	if _, err := FitGaussian([]float64{1}); err == nil {
		t.Fatal("single sample should error")
	}
}

func TestFitGammaRecoversShape(t *testing.T) {
	// Gamma(k=4, θ=10): mean 40, simulate via sum of 4 exponentials.
	rnd := rand.New(rand.NewSource(3))
	samples := make([]float64, 20000)
	for i := range samples {
		var s float64
		for j := 0; j < 4; j++ {
			s += rnd.ExpFloat64() * 10
		}
		samples[i] = s
	}
	fit, err := FitGamma(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mean-40) > 1 {
		t.Fatalf("mean = %v", fit.Mean)
	}
	// Median of Gamma(4,10) ≈ 36.7.
	med := fit.CDF(36.7)
	if !almostEq(med, 0.5, 0.03) {
		t.Fatalf("CDF(36.7) = %v, want ≈0.5", med)
	}
	if fit.CDF(0) != 0 {
		t.Fatal("CDF(0) must be 0")
	}
	if got := fit.CDF(1e6); !almostEq(got, 1, 1e-6) {
		t.Fatalf("CDF(huge) = %v", got)
	}
	if _, err := FitGamma([]float64{1, -1}); err == nil {
		t.Fatal("non-positive samples should error")
	}
}

func TestKLRawVsFuncPrefersBetterFit(t *testing.T) {
	// Bimodal data: neither Gaussian nor exponential fits well, but the
	// Gaussian (matching mean/variance) should beat the exponential,
	// and an exact histogram beats both — the Figure 11(a) ordering.
	rnd := rand.New(rand.NewSource(4))
	var samples []float64
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			samples = append(samples, math.Round(80+rnd.NormFloat64()*4))
		} else {
			samples = append(samples, math.Round(140+rnd.NormFloat64()*6))
		}
	}
	raw, err := hist.NewRaw(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := FitGaussian(samples)
	mu := Mean(samples)
	expCDF := func(x float64) float64 { // the maximum-likelihood exponential
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-x/mu)
	}
	auto, _, err := hist.AutoHistogram(samples, 1, hist.DefaultAutoConfig())
	if err != nil {
		t.Fatal(err)
	}
	klG := KLRawVsFunc(raw, g.CDF)
	klE := KLRawVsFunc(raw, expCDF)
	klA := KLRawVsHistogram(raw, auto)
	if !(klA < klG && klG < klE) {
		t.Fatalf("ordering violated: auto %v, gaussian %v, exponential %v", klA, klG, klE)
	}
}

func TestDigammaTrigammaKnownValues(t *testing.T) {
	// ψ(1) = −γ (Euler–Mascheroni), ψ′(1) = π²/6.
	const gamma = 0.5772156649015329
	if got := digamma(1); !almostEq(got, -gamma, 1e-10) {
		t.Fatalf("digamma(1) = %v, want %v", got, -gamma)
	}
	if got := trigamma(1); !almostEq(got, math.Pi*math.Pi/6, 1e-10) {
		t.Fatalf("trigamma(1) = %v, want %v", got, math.Pi*math.Pi/6)
	}
	// Recurrence check: ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.5, 2.3, 7.7} {
		if got := digamma(x + 1); !almostEq(got, digamma(x)+1/x, 1e-10) {
			t.Fatalf("digamma recurrence fails at %v", x)
		}
	}
}

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 − e^{−x} (exponential CDF).
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := regularizedGammaP(1, x); !almostEq(got, want, 1e-10) {
			t.Fatalf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	if regularizedGammaP(3, 0) != 0 {
		t.Fatal("P(a,0) must be 0")
	}
	// Monotone in x.
	prev := -1.0
	for x := 0.0; x < 20; x += 0.5 {
		p := regularizedGammaP(2.5, x)
		if p < prev-1e-12 {
			t.Fatalf("P(2.5,·) not monotone at %v", x)
		}
		prev = p
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatal("mean")
	}
	if Variance(xs) != 2 {
		t.Fatalf("variance = %v, want 2", Variance(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}
