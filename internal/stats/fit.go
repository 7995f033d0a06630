package stats

import (
	"fmt"
	"math"
)

// Fitted is a fitted standard distribution exposing its CDF; the
// Figure 11(a) comparison only needs CDF evaluations on the raw
// value lattice.
type Fitted struct {
	Name string
	CDF  func(x float64) float64
	Mean float64
}

// FitGaussian fits a normal distribution by maximum likelihood
// (sample mean and sample standard deviation).
func FitGaussian(samples []float64) (Fitted, error) {
	if len(samples) < 2 {
		return Fitted{}, fmt.Errorf("stats: need ≥ 2 samples to fit a Gaussian")
	}
	mu := Mean(samples)
	sd := math.Sqrt(Variance(samples))
	if sd <= 0 {
		sd = 1e-6 // degenerate data; keep the CDF well-defined
	}
	return Fitted{
		Name: "gaussian",
		Mean: mu,
		CDF: func(x float64) float64 {
			return 0.5 * (1 + math.Erf((x-mu)/(sd*math.Sqrt2)))
		},
	}, nil
}

// FitGamma fits a gamma distribution by maximum likelihood using the
// standard Newton iteration on the shape parameter k:
//
//	log(k) − ψ(k) = log(mean) − mean(log x)
//
// with θ = mean/k. All samples must be positive.
func FitGamma(samples []float64) (Fitted, error) {
	if len(samples) < 2 {
		return Fitted{}, fmt.Errorf("stats: need ≥ 2 samples to fit a Gamma")
	}
	var sum, sumLog float64
	for _, x := range samples {
		if x <= 0 {
			return Fitted{}, fmt.Errorf("stats: gamma fit needs positive samples, got %v", x)
		}
		sum += x
		sumLog += math.Log(x)
	}
	n := float64(len(samples))
	mu := sum / n
	s := math.Log(mu) - sumLog/n
	if s <= 0 {
		// Nearly constant data; use a huge shape (tight around the mean).
		s = 1e-9
	}
	// Minka's initialization followed by Newton steps.
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	for i := 0; i < 50; i++ {
		f := math.Log(k) - digamma(k) - s
		fp := 1/k - trigamma(k)
		nk := k - f/fp
		if nk <= 0 || math.IsNaN(nk) {
			break
		}
		if math.Abs(nk-k) < 1e-12*k {
			k = nk
			break
		}
		k = nk
	}
	theta := mu / k
	return Fitted{
		Name: "gamma",
		Mean: mu,
		CDF: func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return regularizedGammaP(k, x/theta)
		},
	}, nil
}

// digamma computes ψ(x) via the recurrence and asymptotic expansion.
func digamma(x float64) float64 {
	var r float64
	for x < 10 {
		r -= 1 / x
		x++
	}
	f := 1 / (x * x)
	return r + math.Log(x) - 0.5/x -
		f*(1.0/12-f*(1.0/120-f*(1.0/252-f*(1.0/240-f/132))))
}

// trigamma computes ψ′(x) via the recurrence and asymptotic expansion.
func trigamma(x float64) float64 {
	var r float64
	for x < 10 {
		r += 1 / (x * x)
		x++
	}
	f := 1 / (x * x)
	return r + 1/x + f/2 + f/x*(1.0/6-f*(1.0/30-f*(1.0/42-f/30)))
}

// regularizedGammaP computes P(a, x), the regularized lower incomplete
// gamma function, via the series expansion for x < a+1 and the
// continued fraction otherwise (Numerical Recipes style).
func regularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-14 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a, x); P = 1 − Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	p := 1 - q
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
