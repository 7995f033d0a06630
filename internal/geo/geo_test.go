package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fixedQuick is a testing/quick configuration with a fixed generator
// (count 0 keeps quick's default): the default one is seeded from the
// clock, so a property that fails for one input in thousands fails one
// run in many instead of every run.
func fixedQuick(count int, seed int64) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

func TestHaversineZero(t *testing.T) {
	p := Point{Lat: 57.05, Lon: 9.92}
	if d := Haversine(p, p); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Aalborg to Copenhagen is roughly 237 km great circle.
	aal := Point{Lat: 57.0488, Lon: 9.9217}
	cph := Point{Lat: 55.6761, Lon: 12.5683}
	d := Haversine(aal, cph)
	if d < 220000 || d > 250000 {
		t.Fatalf("Aalborg-Copenhagen = %v m, want ~237 km", d)
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 89), Lon: math.Mod(lon1, 179)}
		b := Point{Lat: math.Mod(lat2, 89), Lon: math.Mod(lon2, 179)}
		return almostEq(Haversine(a, b), Haversine(b, a), 1e-6)
	}
	if err := quick.Check(f, fixedQuick(0, 31)); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{Lat: math.Mod(lat1, 89), Lon: math.Mod(lon1, 179)}
		b := Point{Lat: math.Mod(lat2, 89), Lon: math.Mod(lon2, 179)}
		c := Point{Lat: math.Mod(lat3, 89), Lon: math.Mod(lon3, 179)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, fixedQuick(0, 32)); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(Point{Lat: 57.05, Lon: 9.92})
	f := func(dx, dy float64) bool {
		dx = math.Mod(dx, 20000)
		dy = math.Mod(dy, 20000)
		p := pr.ToPoint(dx, dy)
		x, y := pr.ToXY(p)
		return almostEq(x, dx, 1e-6) && almostEq(y, dy, 1e-6)
	}
	if err := quick.Check(f, fixedQuick(0, 33)); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionDistanceAgreesWithHaversine(t *testing.T) {
	pr := NewProjection(Point{Lat: 57.05, Lon: 9.92})
	a := Point{Lat: 57.06, Lon: 9.95}
	b := Point{Lat: 57.02, Lon: 9.90}
	ax, ay := pr.ToXY(a)
	bx, by := pr.ToXY(b)
	planar := XY{ax, ay}.Dist(XY{bx, by})
	sphere := Haversine(a, b)
	if math.Abs(planar-sphere)/sphere > 0.01 {
		t.Fatalf("planar %v vs sphere %v: error > 1%%", planar, sphere)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{A: XY{0, 0}, B: XY{10, 0}}
	cases := []struct {
		p     XY
		wantC XY
		wantT float64
	}{
		{XY{5, 3}, XY{5, 0}, 0.5},
		{XY{-4, 2}, XY{0, 0}, 0},
		{XY{14, -2}, XY{10, 0}, 1},
		{XY{0, 0}, XY{0, 0}, 0},
	}
	for _, c := range cases {
		got, tfrac := s.ClosestPoint(c.p)
		if !almostEq(got.X, c.wantC.X, 1e-9) || !almostEq(got.Y, c.wantC.Y, 1e-9) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.wantC)
		}
		if !almostEq(tfrac, c.wantT, 1e-9) {
			t.Errorf("ClosestPoint(%v) t = %v, want %v", c.p, tfrac, c.wantT)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Segment{A: XY{3, 4}, B: XY{3, 4}}
	c, tfrac := s.ClosestPoint(XY{0, 0})
	if c != s.A || tfrac != 0 {
		t.Fatalf("degenerate segment: got %v, %v", c, tfrac)
	}
	if got := c.Dist(XY{0, 0}); !almostEq(got, 5, 1e-9) {
		t.Fatalf("distance to the degenerate segment = %v, want 5", got)
	}
}

func TestSegmentDistNonNegativeAndBounded(t *testing.T) {
	clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Segment{A: XY{clamp(ax), clamp(ay)}, B: XY{clamp(bx), clamp(by)}}
		p := XY{clamp(px), clamp(py)}
		c, _ := s.ClosestPoint(p)
		d := c.Dist(p)
		// Distance must be >= 0 and <= distance to either endpoint.
		return d >= 0 && d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, fixedQuick(0, 34)); err != nil {
		t.Fatal(err)
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	pts := []Point{{57.0, 9.9}, {57.1, 9.8}, {56.9, 10.0}}
	for _, p := range pts {
		b.Extend(p)
	}
	if want := (BBox{MinLat: 56.9, MinLon: 9.8, MaxLat: 57.1, MaxLon: 10.0}); b != want {
		t.Errorf("box = %+v, want %+v", b, want)
	}
	c := b.Center()
	if !almostEq(c.Lat, 57.0, 1e-9) || !almostEq(c.Lon, 9.9, 1e-9) {
		t.Errorf("center = %v", c)
	}
}
