package core

import (
	"fmt"

	"repro/internal/gps"
	"repro/internal/hist"
)

// CostDomain selects which travel cost the distributions describe.
// Temporal relevance (shift-and-enlarge) always uses travel time,
// whichever domain the distributions are over.
type CostDomain int

// DomainEmissions selects GHG emissions (grams); the zero CostDomain
// is travel time (seconds). These are the paper's two cost domains.
const DomainEmissions CostDomain = 1

// String names the domain.
func (d CostDomain) String() string {
	if d == DomainEmissions {
		return "emissions"
	}
	return "time"
}

// Params mirrors the paper's Table 2 parameters plus implementation
// bounds.
type Params struct {
	// AlphaMinutes is the finest time-interval granularity α.
	AlphaMinutes int
	// Beta is the qualified-trajectory count threshold β.
	Beta int
	// MaxRank bounds the cardinality of instantiated non-unit paths
	// (the paper instantiates "until longer paths cannot be obtained";
	// the bound keeps hyper-bucket dimensionality within hist.MaxDims).
	MaxRank int
	// GTThresholdS is the accuracy-optimal baseline's departure-time
	// tolerance in seconds ("e.g., 30 minutes", Section 2.2).
	GTThresholdS float64
	// Auto configures the histogram bucket-count selection.
	Auto hist.AutoConfig
	// Resolution is the cost lattice step in cost units (seconds).
	Resolution float64
	// MaxAccBuckets caps the accumulated-cost dimension during chain
	// evaluation; 0 means unlimited (exact but potentially slow).
	MaxAccBuckets int
	// MaxResultBuckets caps the final marginal cost histogram; 0 means
	// uncompressed.
	MaxResultBuckets int
	// StaticBuckets, when positive, replaces Auto selection with a
	// fixed per-dimension bucket count (the Sta-b baseline).
	StaticBuckets int
	// Domain selects the cost domain (travel time by default).
	Domain CostDomain
	// Workers parallelizes weight instantiation (the paper trains with
	// 48 threads); ≤ 1 means serial. Results are identical either way.
	Workers int
}

// DefaultParams returns the paper's default setting: α = 30 minutes,
// β = 30.
func DefaultParams() Params {
	return Params{
		AlphaMinutes:     30,
		Beta:             30,
		MaxRank:          8,
		GTThresholdS:     30 * 60,
		Auto:             hist.DefaultAutoConfig(),
		Resolution:       hist.DefaultResolution,
		MaxAccBuckets:    48,
		MaxResultBuckets: 64,
	}
}

// Validate rejects unusable parameter combinations.
func (p Params) Validate() error {
	if p.AlphaMinutes <= 0 || 1440%p.AlphaMinutes != 0 {
		return fmt.Errorf("core: α = %d minutes must positively divide 1440", p.AlphaMinutes)
	}
	if p.Beta < 1 {
		return fmt.Errorf("core: β = %d must be ≥ 1", p.Beta)
	}
	if p.MaxRank < 1 || p.MaxRank > hist.MaxDims-1 {
		return fmt.Errorf("core: MaxRank = %d out of range [1,%d]", p.MaxRank, hist.MaxDims-1)
	}
	if p.GTThresholdS <= 0 {
		return fmt.Errorf("core: ground-truth threshold must be positive")
	}
	if p.Resolution <= 0 {
		return fmt.Errorf("core: resolution must be positive")
	}
	return nil
}

// NumIntervals returns the number of α-intervals in a day.
func (p Params) NumIntervals() int { return 1440 / p.AlphaMinutes }

// IntervalSeconds returns the interval length in seconds.
func (p Params) IntervalSeconds() float64 { return float64(p.AlphaMinutes) * 60 }

// IntervalOf maps an absolute time to its time-of-day interval index.
func (p Params) IntervalOf(t float64) int {
	return int(gps.SecondsOfDay(t) / p.IntervalSeconds())
}

// IntervalBounds returns [lo, hi) time-of-day seconds of interval j.
func (p Params) IntervalBounds(j int) (lo, hi float64) {
	lo = float64(j) * p.IntervalSeconds()
	return lo, lo + p.IntervalSeconds()
}
