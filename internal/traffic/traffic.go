package traffic

import (
	"math"
	"math/rand"

	"repro/internal/gps"
	"repro/internal/graph"
)

// Config parameterizes the cost model. Zero values are replaced by
// DefaultConfig values in NewModel.
type Config struct {
	// AMPeak and PMPeak are the centers (time-of-day seconds) of the
	// two rush-hour peaks; PeakWidth is their Gaussian width.
	AMPeak, PMPeak, PeakWidth float64
	// BaseCongestion is the off-peak probability that an edge
	// traversal happens in the congested regime; PeakCongestion is the
	// additional probability at the exact peak.
	BaseCongestion, PeakCongestion float64
	// RegimePersistence is the probability that the regime carries
	// over from one edge to the next within a trip (the source of
	// inter-edge dependence).
	RegimePersistence float64
	// CongestedFactor is the mean slowdown multiplier in the congested
	// regime; CongestedSpread is its lognormal sigma.
	CongestedFactor, CongestedSpread float64
	// DriverSigma is the lognormal sigma of the per-trip driver
	// factor; NoiseSigma is the lognormal sigma of per-edge noise.
	DriverSigma, NoiseSigma float64
	// JunctionDelay is the mean intersection delay in seconds added
	// per edge, by road class of the edge being entered.
	JunctionDelay [graph.NumRoadClasses]float64
}

// DefaultConfig returns the calibration used by the experiments.
func DefaultConfig() Config {
	return Config{
		AMPeak:            8 * 3600,
		PMPeak:            17 * 3600,
		PeakWidth:         5400,
		BaseCongestion:    0.08,
		PeakCongestion:    0.55,
		RegimePersistence: 0.78,
		CongestedFactor:   2.3,
		CongestedSpread:   0.12,
		DriverSigma:       0.08,
		NoiseSigma:        0.06,
		JunctionDelay:     [graph.NumRoadClasses]float64{0, 7, 11, 5},
	}
}

// Model evaluates the traffic state; it is stateless and safe for
// concurrent use. Per-trip state lives in Trip.
type Model struct {
	cfg Config
}

// NewModel builds a Model, filling zero config fields with defaults.
func NewModel(cfg Config) *Model {
	def := DefaultConfig()
	if cfg.AMPeak == 0 {
		cfg.AMPeak = def.AMPeak
	}
	if cfg.PMPeak == 0 {
		cfg.PMPeak = def.PMPeak
	}
	if cfg.PeakWidth == 0 {
		cfg.PeakWidth = def.PeakWidth
	}
	if cfg.BaseCongestion == 0 {
		cfg.BaseCongestion = def.BaseCongestion
	}
	if cfg.PeakCongestion == 0 {
		cfg.PeakCongestion = def.PeakCongestion
	}
	if cfg.RegimePersistence == 0 {
		cfg.RegimePersistence = def.RegimePersistence
	}
	if cfg.CongestedFactor == 0 {
		cfg.CongestedFactor = def.CongestedFactor
	}
	if cfg.CongestedSpread == 0 {
		cfg.CongestedSpread = def.CongestedSpread
	}
	if cfg.DriverSigma == 0 {
		cfg.DriverSigma = def.DriverSigma
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = def.NoiseSigma
	}
	var zeroJD [graph.NumRoadClasses]float64
	if cfg.JunctionDelay == zeroJD {
		cfg.JunctionDelay = def.JunctionDelay
	}
	return &Model{cfg: cfg}
}

// Peakness returns how deep into a rush-hour peak the given absolute
// time is, in [0, 1].
func (m *Model) Peakness(t float64) float64 {
	tod := gps.SecondsOfDay(t)
	g := func(center float64) float64 {
		d := tod - center
		return math.Exp(-d * d / (2 * m.cfg.PeakWidth * m.cfg.PeakWidth))
	}
	p := g(m.cfg.AMPeak) + g(m.cfg.PMPeak)
	if p > 1 {
		p = 1
	}
	return p
}

// CongestionProb returns the stationary probability that a traversal
// at absolute time t happens in the congested regime.
func (m *Model) CongestionProb(t float64) float64 {
	p := m.cfg.BaseCongestion + m.cfg.PeakCongestion*m.Peakness(t)
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// Trip is the per-trajectory sampling state: the driver factor drawn
// once per trip and the regime Markov chain evolving edge to edge.
type Trip struct {
	m            *Model
	rnd          *rand.Rand
	driverFactor float64
	congested    bool
	started      bool
}

// NewTrip starts a trip departing at absolute time depart.
func (m *Model) NewTrip(rnd *rand.Rand, depart float64) *Trip {
	return &Trip{
		m:            m,
		rnd:          rnd,
		driverFactor: math.Exp(rnd.NormFloat64() * m.cfg.DriverSigma),
	}
}

// TraverseEdge samples the travel time in seconds for traversing e
// when arriving at its start at absolute time arrival, advancing the
// trip's regime chain. The returned cost is always positive and at
// least 40% of free-flow (vehicles cannot be arbitrarily fast).
func (t *Trip) TraverseEdge(e graph.Edge, arrival float64) float64 {
	cfg := t.m.cfg
	rho := t.m.CongestionProb(arrival)
	if !t.started {
		t.congested = t.rnd.Float64() < rho
		t.started = true
	} else {
		// Blend persistence with the stationary probability so the
		// chain both correlates along the path and tracks the clock.
		var p float64
		if t.congested {
			p = cfg.RegimePersistence + (1-cfg.RegimePersistence)*rho
		} else {
			p = (1 - cfg.RegimePersistence) * rho
		}
		t.congested = t.rnd.Float64() < p
	}

	base := e.FreeFlowSeconds()
	cost := base
	if t.congested {
		f := cfg.CongestedFactor * math.Exp(t.rnd.NormFloat64()*cfg.CongestedSpread)
		if f < 1 {
			f = 1
		}
		cost *= f
	}
	// Intersection delay for entering this edge, worse when congested.
	delay := cfg.JunctionDelay[e.Class] * t.rnd.ExpFloat64()
	if t.congested {
		delay *= 1.8
	}
	cost += delay
	// Driver factor and idiosyncratic noise.
	cost *= t.driverFactor * math.Exp(t.rnd.NormFloat64()*cfg.NoiseSigma)

	if min := 0.4 * base; cost < min {
		cost = min
	}
	return cost
}

// Emissions returns the GHG cost in grams of traversing edge e in the
// given number of seconds, using a convex speed-emissions curve
// (U-shaped in speed, minimal near 65 km/h) in the spirit of the
// vehicular environmental models the paper cites [8, 9].
func Emissions(e graph.Edge, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	vKmh := e.LengthM / 1000 / (seconds / 3600)
	if vKmh < 3 {
		vKmh = 3 // idling floor
	}
	gramsPerKm := 110 + 3200/vKmh + 0.012*vKmh*vKmh
	return gramsPerKm * e.LengthM / 1000
}
