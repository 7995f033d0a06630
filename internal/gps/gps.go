package gps

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/graph"
)

// SecondsPerDay is the length of the time-of-day domain T.
const SecondsPerDay = 86400.0

// SecondsOfDay maps an absolute timestamp to time-of-day seconds in
// [0, SecondsPerDay).
func SecondsOfDay(t float64) float64 {
	s := math.Mod(t, SecondsPerDay)
	if s < 0 {
		s += SecondsPerDay
	}
	return s
}

// Record is one GPS fix: a (location, time) pair.
type Record struct {
	Pt   geo.Point
	Time float64 // absolute seconds
}

// Trajectory is a time-ordered sequence of GPS records for one trip.
type Trajectory struct {
	ID      int64
	Records []Record
}

// Validate checks that the trajectory has at least two records in
// strictly increasing time order.
func (tr *Trajectory) Validate() error {
	if len(tr.Records) < 2 {
		return fmt.Errorf("gps: trajectory %d has %d records, need ≥ 2", tr.ID, len(tr.Records))
	}
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].Time <= tr.Records[i-1].Time {
			return fmt.Errorf("gps: trajectory %d not strictly time-ordered at record %d", tr.ID, i)
		}
	}
	return nil
}

// Duration returns the elapsed time between first and last record.
func (tr *Trajectory) Duration() float64 {
	if len(tr.Records) == 0 {
		return 0
	}
	return tr.Records[len(tr.Records)-1].Time - tr.Records[0].Time
}

// Matched is a map-matched trajectory: the path of the trajectory
// (Section 2.1's P_T), the absolute departure time on the path's
// first edge, and the travel cost of each edge in the path.
//
// EdgeCosts[i] is the travel time in seconds spent on Path[i];
// Emissions[i], when present, is the GHG cost of Path[i] in grams.
type Matched struct {
	ID        int64
	Path      graph.Path
	Depart    float64
	EdgeCosts []float64
	Emissions []float64 // optional; nil when the cost domain is time only
}

// Validate checks structural consistency of the matched trajectory.
func (m *Matched) Validate(g *graph.Graph) error {
	if !g.ValidPath(m.Path) {
		return fmt.Errorf("gps: matched trajectory %d has invalid path %v", m.ID, m.Path)
	}
	if len(m.EdgeCosts) != len(m.Path) {
		return fmt.Errorf("gps: matched trajectory %d has %d costs for %d edges",
			m.ID, len(m.EdgeCosts), len(m.Path))
	}
	for i, c := range m.EdgeCosts {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("gps: matched trajectory %d has invalid cost %v at edge %d", m.ID, c, i)
		}
	}
	if m.Emissions != nil && len(m.Emissions) != len(m.Path) {
		return fmt.Errorf("gps: matched trajectory %d has %d emissions for %d edges",
			m.ID, len(m.Emissions), len(m.Path))
	}
	return nil
}

// TotalCost returns the total travel time over the whole path.
func (m *Matched) TotalCost() float64 {
	var s float64
	for _, c := range m.EdgeCosts {
		s += c
	}
	return s
}

// ArrivalAt returns the absolute time at which the vehicle arrives at
// the start of edge index i in the path (ArrivalAt(0) == Depart).
func (m *Matched) ArrivalAt(i int) float64 {
	t := m.Depart
	for j := 0; j < i; j++ {
		t += m.EdgeCosts[j]
	}
	return t
}

// CostOfSubPath returns the summed cost of edges [from, from+n).
func (m *Matched) CostOfSubPath(from, n int) float64 {
	var s float64
	for j := from; j < from+n; j++ {
		s += m.EdgeCosts[j]
	}
	return s
}

// Occurrence locates a sub-path occurrence within a matched
// trajectory: trajectory index (into a Collection) and the position of
// the sub-path's first edge within the trajectory's path.
type Occurrence struct {
	Traj int
	Pos  int
}

// Collection is an immutable-after-Build set of matched trajectories
// with an inverted index from edge ID to its occurrences, supporting
// the "trajectories that occurred on path P" lookups that drive
// weight instantiation (Section 3) and the accuracy-optimal baseline
// (Section 2.2).
type Collection struct {
	trajs   []*Matched
	byEdge  map[graph.EdgeID][]Occurrence
	records int64 // total GPS-record count estimate carried from generation
}

// NewCollection indexes the given matched trajectories. The records
// argument carries the raw GPS record count for reporting; pass 0 when
// unknown.
func NewCollection(trajs []*Matched, records int64) *Collection {
	c := &Collection{
		trajs:   trajs,
		byEdge:  make(map[graph.EdgeID][]Occurrence),
		records: records,
	}
	for ti, m := range trajs {
		for pos, e := range m.Path {
			c.byEdge[e] = append(c.byEdge[e], Occurrence{Traj: ti, Pos: pos})
		}
	}
	return c
}

// Len returns the number of matched trajectories.
func (c *Collection) Len() int { return len(c.trajs) }

// Records returns the raw GPS record count carried from generation.
func (c *Collection) Records() int64 { return c.records }

// Traj returns the i-th matched trajectory.
func (c *Collection) Traj(i int) *Matched { return c.trajs[i] }

// EdgeOccurrences returns all occurrences of edge e; do not modify.
func (c *Collection) EdgeOccurrences(e graph.EdgeID) []Occurrence { return c.byEdge[e] }

// OccurrencesOfPath returns the occurrences of path p: positions where
// p is a contiguous sub-path of a trajectory's path. It extends the
// occurrences of p's first edge, which the index provides directly.
func (c *Collection) OccurrencesOfPath(p graph.Path) []Occurrence {
	if len(p) == 0 {
		return nil
	}
	var out []Occurrence
	for _, oc := range c.byEdge[p[0]] {
		if c.PathAt(oc, p) {
			out = append(out, oc)
		}
	}
	return out
}

// PathAt reports whether p is the contiguous sub-path of oc's
// trajectory starting at oc's position, given that oc is an occurrence
// of p's first edge.
func (c *Collection) PathAt(oc Occurrence, p graph.Path) bool {
	tp := c.trajs[oc.Traj].Path
	if oc.Pos+len(p) > len(tp) {
		return false
	}
	for j := 1; j < len(p); j++ {
		if tp[oc.Pos+j] != p[j] {
			return false
		}
	}
	return true
}

// NumEdgesWithData returns the number of edges traversed by at least
// one trajectory (|E′| in the paper's coverage statistics).
func (c *Collection) NumEdgesWithData() int { return len(c.byEdge) }

// Extend returns a new collection over the receiver's trajectories
// plus the given batch, appended in order, with moreRecords added to
// the record count. The receiver is unchanged and remains fully
// usable: the trajectory slice is copied and occurrence lists for
// edges the batch touches are cloned before appending, so the two
// collections never share a mutable backing array (an old epoch can
// keep reading while the new one is built).
//
// The occurrence index of the result is identical to what
// NewCollection would build over the concatenated trajectories: new
// occurrences land strictly after old ones in each per-edge list,
// preserving the order-determinism the trainer relies on.
func (c *Collection) Extend(batch []*Matched, moreRecords int64) *Collection {
	trajs := make([]*Matched, 0, len(c.trajs)+len(batch))
	trajs = append(trajs, c.trajs...)
	trajs = append(trajs, batch...)
	out := &Collection{
		trajs:   trajs,
		byEdge:  make(map[graph.EdgeID][]Occurrence, len(c.byEdge)),
		records: c.records + moreRecords,
	}
	for e, occs := range c.byEdge {
		out.byEdge[e] = occs
	}
	cloned := make(map[graph.EdgeID]bool)
	for bi, m := range batch {
		ti := len(c.trajs) + bi
		for pos, e := range m.Path {
			if !cloned[e] {
				old := out.byEdge[e]
				fresh := make([]Occurrence, len(old), len(old)+4)
				copy(fresh, old)
				out.byEdge[e] = fresh
				cloned[e] = true
			}
			out.byEdge[e] = append(out.byEdge[e], Occurrence{Traj: ti, Pos: pos})
		}
	}
	return out
}

// Subset returns a new collection over the first n trajectories (used
// by the dataset-size sweeps of Figures 10, 12 and 17). Record counts
// are scaled proportionally.
func (c *Collection) Subset(n int) *Collection {
	if n >= len(c.trajs) {
		return c
	}
	var recs int64
	if len(c.trajs) > 0 {
		recs = c.records * int64(n) / int64(len(c.trajs))
	}
	return NewCollection(c.trajs[:n], recs)
}

// Filter returns a new collection containing only trajectories for
// which keep returns true; used to hold out ground-truth trajectories
// in the Figure 13/14 accuracy experiments.
func (c *Collection) Filter(keep func(*Matched) bool) *Collection {
	var out []*Matched
	for _, m := range c.trajs {
		if keep(m) {
			out = append(out, m)
		}
	}
	var recs int64
	if len(c.trajs) > 0 {
		recs = c.records * int64(len(out)) / int64(len(c.trajs))
	}
	return NewCollection(out, recs)
}
