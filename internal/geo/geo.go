package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by Haversine.
const EarthRadiusMeters = 6371000.0

// Point is a WGS84 coordinate.
type Point struct {
	Lat float64 // latitude in degrees, positive north
	Lon float64 // longitude in degrees, positive east
}

// String renders the point as "lat,lon" with six decimals (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat := la2 - la1
	dLon := lo2 - lo1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Projection is a local equirectangular projection around an origin.
// It maps WGS84 points to planar (x, y) meters; accurate for city-scale
// extents, which is all the simulator and map matcher need.
type Projection struct {
	origin Point
	cosLat float64
}

// NewProjection creates a projection centered on origin.
func NewProjection(origin Point) *Projection {
	return &Projection{origin: origin, cosLat: math.Cos(deg2rad(origin.Lat))}
}

// ToXY projects p to planar meters relative to the origin.
func (pr *Projection) ToXY(p Point) (x, y float64) {
	x = deg2rad(p.Lon-pr.origin.Lon) * EarthRadiusMeters * pr.cosLat
	y = deg2rad(p.Lat-pr.origin.Lat) * EarthRadiusMeters
	return x, y
}

// ToPoint is the inverse of ToXY.
func (pr *Projection) ToPoint(x, y float64) Point {
	lat := pr.origin.Lat + rad2deg(y/EarthRadiusMeters)
	lon := pr.origin.Lon + rad2deg(x/(EarthRadiusMeters*pr.cosLat))
	return Point{Lat: lat, Lon: lon}
}

// XY is a planar coordinate in meters.
type XY struct {
	X, Y float64
}

// Dist returns the Euclidean distance between a and b.
func (a XY) Dist(b XY) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// Segment is a planar line segment.
type Segment struct {
	A, B XY
}

// ClosestPoint returns the point on the segment closest to p and the
// fraction t in [0,1] along the segment at which it lies.
func (s Segment) ClosestPoint(p XY) (XY, float64) {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return s.A, 0
	}
	t := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / l2
	t = math.Max(0, math.Min(1, t))
	return XY{X: s.A.X + t*dx, Y: s.A.Y + t*dy}, t
}

// BBox is an axis-aligned bounding box over WGS84 coordinates.
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// EmptyBBox returns a box that contains nothing; Extend grows it.
func EmptyBBox() BBox {
	return BBox{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	b.MinLat = math.Min(b.MinLat, p.Lat)
	b.MinLon = math.Min(b.MinLon, p.Lon)
	b.MaxLat = math.Max(b.MaxLat, p.Lat)
	b.MaxLon = math.Max(b.MaxLon, p.Lon)
}

// Center returns the box midpoint.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}
