package traffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func testEdge() graph.Edge {
	return graph.Edge{ID: 0, From: 0, To: 1, LengthM: 500, SpeedKmh: 50, Class: graph.ClassSecondary}
}

func TestNewModelFillsDefaults(t *testing.T) {
	m := NewModel(Config{})
	def := DefaultConfig()
	if m.cfg != def {
		t.Fatalf("zero config should become defaults:\n got %+v\nwant %+v", m.cfg, def)
	}
	// Partial overrides survive.
	m2 := NewModel(Config{CongestedFactor: 3})
	if m2.cfg.CongestedFactor != 3 {
		t.Fatal("override lost")
	}
	if m2.cfg.AMPeak != def.AMPeak {
		t.Fatal("default not filled")
	}
}

func TestPeaknessShape(t *testing.T) {
	m := NewModel(Config{})
	am := m.Peakness(8 * 3600)
	noon := m.Peakness(12 * 3600)
	night := m.Peakness(3 * 3600)
	pm := m.Peakness(17 * 3600)
	if am < 0.9 || pm < 0.9 {
		t.Fatalf("peaks should be ~1: am=%v pm=%v", am, pm)
	}
	if noon > 0.7 || night > 0.15 {
		t.Fatalf("off-peak should be low: noon=%v night=%v", noon, night)
	}
	// Works across day boundaries (absolute times).
	if got := m.Peakness(5*86400 + 8*3600); math.Abs(got-am) > 1e-12 {
		t.Fatal("peakness must depend only on time of day")
	}
}

func TestCongestionProbBounds(t *testing.T) {
	m := NewModel(Config{})
	for h := 0.0; h < 24; h += 0.25 {
		p := m.CongestionProb(h * 3600)
		if p < 0 || p > 0.95 {
			t.Fatalf("p=%v at hour %v", p, h)
		}
	}
	if m.CongestionProb(8*3600) <= m.CongestionProb(3*3600) {
		t.Fatal("rush hour must be more congested than night")
	}
}

func TestTraverseEdgePositiveAndBounded(t *testing.T) {
	m := NewModel(Config{})
	rnd := rand.New(rand.NewSource(1))
	e := testEdge()
	ff := e.FreeFlowSeconds()
	for i := 0; i < 5000; i++ {
		trip := m.NewTrip(rnd, 8*3600)
		c := trip.TraverseEdge(e, 8*3600)
		if c < 0.4*ff {
			t.Fatalf("cost %v below floor %v", c, 0.4*ff)
		}
		if c > ff*40 {
			t.Fatalf("cost %v absurdly high", c)
		}
	}
}

func TestRushHourSlowerOnAverage(t *testing.T) {
	m := NewModel(Config{})
	rnd := rand.New(rand.NewSource(2))
	e := testEdge()
	mean := func(hour float64) float64 {
		var s float64
		const n = 4000
		for i := 0; i < n; i++ {
			trip := m.NewTrip(rnd, hour*3600)
			s += trip.TraverseEdge(e, hour*3600)
		}
		return s / n
	}
	peak := mean(8)
	night := mean(3)
	if peak <= night*1.15 {
		t.Fatalf("rush hour mean %v should clearly exceed night mean %v", peak, night)
	}
}

func TestRegimePersistenceCreatesCorrelation(t *testing.T) {
	// Along a trip, consecutive edge costs must be positively
	// correlated; across independent trips they must not be.
	m := NewModel(Config{})
	rnd := rand.New(rand.NewSource(3))
	e := testEdge()
	const n = 6000
	within := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		trip := m.NewTrip(rnd, 8*3600)
		c1 := trip.TraverseEdge(e, 8*3600)
		c2 := trip.TraverseEdge(e, 8*3600+c1)
		within = append(within, [2]float64{c1, c2})
	}
	corr := pairCorrelation(within)
	if corr < 0.3 {
		t.Fatalf("within-trip correlation = %v, want strongly positive", corr)
	}
	across := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		t1 := m.NewTrip(rnd, 8*3600)
		t2 := m.NewTrip(rnd, 8*3600)
		across = append(across, [2]float64{
			t1.TraverseEdge(e, 8*3600),
			t2.TraverseEdge(e, 8*3600),
		})
	}
	if c := pairCorrelation(across); math.Abs(c) > 0.1 {
		t.Fatalf("across-trip correlation = %v, want ≈0", c)
	}
}

func pairCorrelation(xs [][2]float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for _, p := range xs {
		sx += p[0]
		sy += p[1]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for _, p := range xs {
		cov += (p[0] - mx) * (p[1] - my)
		vx += (p[0] - mx) * (p[0] - mx)
		vy += (p[1] - my) * (p[1] - my)
	}
	return cov / math.Sqrt(vx*vy)
}

func TestRushHourDistributionIsBimodal(t *testing.T) {
	// At a moderately congested time the cost distribution must show
	// two separated clusters (free vs congested), the phenomenon from
	// the paper's Figure 1(b).
	m := NewModel(Config{})
	rnd := rand.New(rand.NewSource(4))
	e := testEdge()
	ff := e.FreeFlowSeconds()
	var free, cong int
	for i := 0; i < 4000; i++ {
		trip := m.NewTrip(rnd, 7.2*3600)
		c := trip.TraverseEdge(e, 7.2*3600)
		if c < ff*1.6 {
			free++
		} else if c > ff*1.9 {
			cong++
		}
	}
	if free < 400 || cong < 400 {
		t.Fatalf("expected both modes populated: free=%d congested=%d", free, cong)
	}
}

func TestEmissionsShape(t *testing.T) {
	e := testEdge()
	// U-shaped in speed: very slow and very fast cost more than ~65km/h.
	atSpeed := func(vKmh float64) float64 {
		sec := e.LengthM / 1000 / vKmh * 3600
		return Emissions(e, sec)
	}
	mid := atSpeed(65)
	slow := atSpeed(10)
	fast := atSpeed(130)
	if mid >= slow || mid >= fast {
		t.Fatalf("emissions not U-shaped: slow=%v mid=%v fast=%v", slow, mid, fast)
	}
	if Emissions(e, 0) != 0 {
		t.Fatal("zero duration should have zero emissions")
	}
	if Emissions(e, -5) != 0 {
		t.Fatal("negative duration should have zero emissions")
	}
	// Longer edges emit proportionally more at the same speed.
	long := e
	long.LengthM = 1000
	if got := Emissions(long, 1000/1000/65.0*3600); got <= mid {
		t.Fatal("longer edge should emit more")
	}
}
