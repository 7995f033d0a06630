package mapmatch

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
)

// Config tunes the matcher.
type Config struct {
	// SigmaM is the GPS noise standard deviation in meters (emission
	// model); BetaM is the exponential scale of the route-vs-line
	// length discrepancy (transition model).
	SigmaM, BetaM float64
	// CandidateRadiusM bounds the candidate search around each fix;
	// MaxCandidates caps candidates per fix.
	CandidateRadiusM float64
	MaxCandidates    int
	// MaxRouteDistM bounds the Dijkstra expansion between consecutive
	// fixes.
	MaxRouteDistM float64
}

// DefaultConfig mirrors the Newson–Krumm calibration at urban scale.
func DefaultConfig() Config {
	return Config{
		SigmaM:           10,
		BetaM:            20,
		CandidateRadiusM: 60,
		MaxCandidates:    8,
		MaxRouteDistM:    3000,
	}
}

// Matcher matches trajectories against one road network. It is safe
// for concurrent use after construction.
type Matcher struct {
	g    *graph.Graph
	cfg  Config
	proj *geo.Projection
	// Planar segment per edge and a uniform grid index over edge IDs.
	segs     []geo.Segment
	grid     map[[2]int][]graph.EdgeID
	cellSize float64
	searches sync.Pool // *search, one per decode in flight
}

// New builds a matcher (and its spatial index) for g.
func New(g *graph.Graph, cfg Config) *Matcher {
	def := DefaultConfig()
	if cfg.SigmaM == 0 {
		cfg.SigmaM = def.SigmaM
	}
	if cfg.BetaM == 0 {
		cfg.BetaM = def.BetaM
	}
	if cfg.CandidateRadiusM == 0 {
		cfg.CandidateRadiusM = def.CandidateRadiusM
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = def.MaxCandidates
	}
	if cfg.MaxRouteDistM == 0 {
		cfg.MaxRouteDistM = def.MaxRouteDistM
	}
	m := &Matcher{
		g:        g,
		cfg:      cfg,
		proj:     geo.NewProjection(g.BBox().Center()),
		segs:     make([]geo.Segment, g.NumEdges()),
		grid:     make(map[[2]int][]graph.EdgeID),
		cellSize: cfg.CandidateRadiusM * 2,
	}
	for _, e := range g.Edges() {
		ax, ay := m.proj.ToXY(g.Vertex(e.From).Pt)
		bx, by := m.proj.ToXY(g.Vertex(e.To).Pt)
		seg := geo.Segment{A: geo.XY{X: ax, Y: ay}, B: geo.XY{X: bx, Y: by}}
		m.segs[e.ID] = seg
		m.indexSegment(e.ID, seg)
	}
	return m
}

func (m *Matcher) cellOf(x, y float64) [2]int {
	return [2]int{int(math.Floor(x / m.cellSize)), int(math.Floor(y / m.cellSize))}
}

func (m *Matcher) indexSegment(id graph.EdgeID, s geo.Segment) {
	c1 := m.cellOf(math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y))
	c2 := m.cellOf(math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y))
	for cx := c1[0]; cx <= c2[0]; cx++ {
		for cy := c1[1]; cy <= c2[1]; cy++ {
			key := [2]int{cx, cy}
			m.grid[key] = append(m.grid[key], id)
		}
	}
}

// candidate is one HMM state: an edge with the projection of the fix
// onto it.
type candidate struct {
	edge graph.EdgeID
	frac float64 // position along the edge in [0,1]
	dist float64 // perpendicular distance in meters
}

// candidatesNear returns up to MaxCandidates edges within the radius
// of the fix, nearest first. s marks the edges already measured: a
// segment is indexed under every grid cell it crosses.
func (m *Matcher) candidatesNear(s *search, p geo.Point) []candidate {
	x, y := m.proj.ToXY(p)
	pt := geo.XY{X: x, Y: y}
	center := m.cellOf(x, y)
	var cands []candidate
	s.begin()
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for _, id := range m.grid[[2]int{center[0] + dx, center[1] + dy}] {
				if s.edgeSeen[id] == s.gen {
					continue
				}
				s.edgeSeen[id] = s.gen
				closest, frac := m.segs[id].ClosestPoint(pt)
				d := closest.Dist(pt)
				if d <= m.cfg.CandidateRadiusM {
					cands = append(cands, candidate{edge: id, frac: frac, dist: d})
				}
			}
		}
	}
	// Partial selection of the nearest MaxCandidates.
	for i := 0; i < len(cands) && i < m.cfg.MaxCandidates; i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist < cands[min].dist {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	if len(cands) > m.cfg.MaxCandidates {
		cands = cands[:m.cfg.MaxCandidates]
	}
	return cands
}

// decode runs the Viterbi pass, returning the matched candidate and
// the timestamp for every fix that had road candidates.
func (m *Matcher) decode(tr *gps.Trajectory) ([]candidate, []float64, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	type layerState struct {
		cands []candidate
		logp  []float64
		back  []int
		// route[i][j]: network distance from previous layer's cand i to
		// this layer's cand j, reused for backtracking route expansion.
	}
	layers := make([]*layerState, 0, len(tr.Records))
	var times []float64
	s := m.getSearch()
	defer m.searches.Put(s)
	emission := func(c candidate) float64 {
		z := c.dist / m.cfg.SigmaM
		return -0.5 * z * z
	}

	var prev *layerState
	var prevRecord gps.Record
	for _, rec := range tr.Records {
		cands := m.candidatesNear(s, rec.Pt)
		if len(cands) == 0 {
			continue // skip fixes with no nearby road (outliers)
		}
		times = append(times, rec.Time)
		cur := &layerState{
			cands: cands,
			logp:  make([]float64, len(cands)),
			back:  make([]int, len(cands)),
		}
		if prev == nil {
			for j, c := range cands {
				cur.logp[j] = emission(c)
				cur.back[j] = -1
			}
		} else {
			line := geo.Haversine(prevRecord.Pt, rec.Pt)
			for j := range cur.logp {
				cur.logp[j] = math.Inf(-1)
				cur.back[j] = -1
			}
			for i, pc := range prev.cands {
				if math.IsInf(prev.logp[i], -1) {
					continue
				}
				dists := m.routeDistances(s, pc, cands)
				for j, c := range cands {
					rd := dists[j]
					if math.IsInf(rd, 1) {
						continue
					}
					trans := -math.Abs(rd-line) / m.cfg.BetaM
					lp := prev.logp[i] + trans + emission(c)
					if lp > cur.logp[j] {
						cur.logp[j] = lp
						cur.back[j] = i
					}
				}
			}
			allDead := true
			for _, lp := range cur.logp {
				if !math.IsInf(lp, -1) {
					allDead = false
					break
				}
			}
			if allDead {
				// HMM break: restart the chain at this fix, keeping the
				// best prefix so far (Newson–Krumm split heuristic).
				for j, c := range cands {
					cur.logp[j] = emission(c)
					cur.back[j] = -1
				}
			}
		}
		layers = append(layers, cur)
		prev = cur
		prevRecord = rec
	}
	if len(layers) == 0 {
		return nil, nil, fmt.Errorf("mapmatch: no road candidates near any fix")
	}

	// Backtrack the best final state.
	last := layers[len(layers)-1]
	best := 0
	for j := range last.logp {
		if last.logp[j] > last.logp[best] {
			best = j
		}
	}
	seq := make([]candidate, len(layers))
	j := best
	for li := len(layers) - 1; li >= 0; li-- {
		seq[li] = layers[li].cands[j]
		j = layers[li].back[j]
		if j < 0 && li > 0 {
			// Chain restart: pick that layer's best state independently.
			pl := layers[li-1]
			j = 0
			for k := range pl.logp {
				if pl.logp[k] > pl.logp[j] {
					j = k
				}
			}
		}
	}

	return seq, times, nil
}

// expandPath connects consecutive matched edges with shortest-path
// gap filling and collapses duplicates, producing a valid path.
func (m *Matcher) expandPath(seq []candidate) (graph.Path, error) {
	var out graph.Path
	push := func(e graph.EdgeID) {
		if len(out) == 0 || out[len(out)-1] != e {
			out = append(out, e)
		}
	}
	push(seq[0].edge)
	for i := 1; i < len(seq); i++ {
		cur := seq[i].edge
		prevEdge := out[len(out)-1]
		if cur == prevEdge {
			continue
		}
		if m.g.Adjacent(prevEdge, cur) {
			push(cur)
			continue
		}
		// Fill the gap with the shortest edge chain.
		gapPath, _, ok := m.g.ShortestPath(m.g.Edge(prevEdge).To, m.g.Edge(cur).From, graph.LengthWeight)
		if ok {
			for _, e := range gapPath {
				push(e)
			}
		}
		push(cur)
	}
	// The expansion may still contain a discontinuity when no gap path
	// exists; in that case report failure rather than a broken path.
	for i := 1; i < len(out); i++ {
		if !m.g.Adjacent(out[i-1], out[i]) {
			return nil, fmt.Errorf("mapmatch: matched edges %v and %v are not connectable", out[i-1], out[i])
		}
	}
	// Noise can make the decoded sequence double back on itself;
	// splice out such cycles so the result is a simple path, matching
	// the paper's path definition (distinct vertices).
	out = m.removeLoops(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("mapmatch: match collapsed to an empty path")
	}
	return out, nil
}

// removeLoops cuts cycles from an edge chain: whenever the chain
// returns to an already-visited vertex, the edges of the detour are
// dropped. The input chain must be edge-adjacent; the output is a
// simple, still-adjacent path.
func (m *Matcher) removeLoops(p graph.Path) graph.Path {
	out := make(graph.Path, 0, len(p))
	// visited[v] = number of edges in out when v was the chain head.
	visited := map[graph.VertexID]int{m.g.Edge(p[0]).From: 0}
	for _, e := range p {
		to := m.g.Edge(e).To
		if k, dup := visited[to]; dup {
			// Splice: drop edges k..len(out) (the cycle back to `to`),
			// and un-visit the vertices they introduced.
			for _, dropped := range out[k:] {
				delete(visited, m.g.Edge(dropped).To)
			}
			out = out[:k]
			visited[to] = len(out)
			continue
		}
		out = append(out, e)
		visited[to] = len(out)
	}
	return out
}

// routeDistances returns the network distance in meters from the
// candidate position pc to each candidate in next, travelling forward
// along directed edges, bounded by MaxRouteDistM. s is the search state
// it runs in; nothing in it outlives the call.
func (m *Matcher) routeDistances(s *search, pc candidate, next []candidate) []float64 {
	out := make([]float64, len(next))
	for i := range out {
		out[i] = math.Inf(1)
	}
	eFrom := m.g.Edge(pc.edge)
	remOnEdge := (1 - pc.frac) * eFrom.LengthM

	// Same-edge forward moves need no graph search.
	remaining := 0
	for i, nc := range next {
		if nc.edge == pc.edge && nc.frac >= pc.frac {
			out[i] = (nc.frac - pc.frac) * eFrom.LengthM
		} else {
			remaining++
		}
	}
	if remaining == 0 {
		return out
	}

	// Dijkstra from the end vertex of pc's edge, bounded by the radius.
	s.begin()
	s.set(eFrom.To, remOnEdge)
	s.heap.Push(graph.VertexDist{V: eFrom.To, D: remOnEdge})
	for found := 0; len(s.heap) > 0 && found < remaining; {
		it := s.heap.Pop()
		if it.D > s.dist[it.V] {
			continue
		}
		// A vertex is settled once, so every candidate starting at it
		// that the same-edge rule left open is reached here, in index
		// order.
		for i, nc := range next {
			if math.IsInf(out[i], 1) && m.g.Edge(nc.edge).From == it.V {
				out[i] = it.D + nc.frac*m.g.Edge(nc.edge).LengthM
				found++
			}
		}
		if it.D > m.cfg.MaxRouteDistM {
			break
		}
		for _, eid := range m.g.Out(it.V) {
			e := m.g.Edge(eid)
			nd := it.D + e.LengthM
			if cur, ok := s.get(e.To); !ok || nd < cur {
				s.set(e.To, nd)
				s.heap.Push(graph.VertexDist{V: e.To, D: nd})
			}
		}
	}
	return out
}

// search is the scratch state one decode keeps across its fixes, so
// that neither the candidate lookup nor the bounded Dijkstra allocates
// per call: per-vertex distances and per-edge marks that count only
// where their stamp is the current generation (begin starts a new one
// instead of clearing them), and the Dijkstra heap, graph.DistHeap,
// whose pop order of equal distances decides which route a tie takes.
type search struct {
	dist     []float64 // tentative distance, valid where stamp == gen
	stamp    []uint32
	edgeSeen []uint32 // == gen where candidatesNear measured the edge
	gen      uint32
	heap     graph.DistHeap
}

// getSearch takes a search from the matcher's pool, sized to the graph.
func (m *Matcher) getSearch() *search {
	s, _ := m.searches.Get().(*search)
	if s == nil {
		s = &search{}
	}
	if nv, ne := m.g.NumVertices(), m.g.NumEdges(); len(s.dist) < nv || len(s.edgeSeen) < ne {
		*s = search{dist: make([]float64, nv), stamp: make([]uint32, nv), edgeSeen: make([]uint32, ne)}
	}
	return s
}

// begin unsets every distance and mark by moving to a fresh generation.
func (s *search) begin() {
	s.gen++
	if s.gen == 0 { // wrapped: stamps of 2³² generations ago would read as set
		clear(s.stamp)
		clear(s.edgeSeen)
		s.gen = 1
	}
	s.heap = s.heap[:0]
}

func (s *search) get(v graph.VertexID) (float64, bool) {
	return s.dist[v], s.stamp[v] == s.gen
}

func (s *search) set(v graph.VertexID, d float64) {
	s.dist[v], s.stamp[v] = d, s.gen
}

// MatchToTimed matches the trajectory and estimates per-edge travel
// times from the fix-to-edge assignment: each matched fix pins the
// vehicle to a progress position along the path at its timestamp, and
// edge boundary crossing times are interpolated between those pins
// ("blasting" the trajectory onto the path, Section 2.1). Edges with
// no pins inherit interpolated times; degenerate cases fall back to a
// length-proportional split of the total duration.
func (m *Matcher) MatchToTimed(tr *gps.Trajectory) (*gps.Matched, error) {
	seq, times, err := m.decode(tr)
	if err != nil {
		return nil, err
	}
	path, err := m.expandPath(seq)
	if err != nil {
		return nil, err
	}
	total := tr.Duration()
	if total <= 0 {
		return nil, fmt.Errorf("mapmatch: zero-duration trajectory")
	}
	costs := m.edgeTimes(path, seq, times)
	if costs == nil {
		// Fallback: proportional-to-length split.
		var lenSum float64
		for _, e := range path {
			lenSum += m.g.Edge(e).LengthM
		}
		costs = make([]float64, len(path))
		for i, e := range path {
			costs[i] = total * m.g.Edge(e).LengthM / lenSum
		}
	}
	return &gps.Matched{
		ID:        tr.ID,
		Path:      path,
		Depart:    tr.Records[0].Time,
		EdgeCosts: costs,
	}, nil
}

// edgeTimes interpolates per-edge travel times from the fix-to-edge
// assignment. It returns nil when fewer than two usable pins exist.
func (m *Matcher) edgeTimes(path graph.Path, seq []candidate, times []float64) []float64 {
	// Cumulative length at each edge boundary: bounds[i] is the travel
	// distance at the start of path[i].
	bounds := make([]float64, len(path)+1)
	firstPos := make(map[graph.EdgeID]int, len(path))
	for i, e := range path {
		bounds[i+1] = bounds[i] + m.g.Edge(e).LengthM
		if _, dup := firstPos[e]; !dup {
			firstPos[e] = i
		}
	}
	// Pins: (progress, time), kept monotone in both coordinates.
	type pin struct{ s, t float64 }
	var pins []pin
	for k, c := range seq {
		pos, ok := firstPos[c.edge]
		if !ok {
			continue // edge spliced out by loop removal
		}
		s := bounds[pos] + c.frac*m.g.Edge(c.edge).LengthM
		if len(pins) > 0 && (s <= pins[len(pins)-1].s || times[k] <= pins[len(pins)-1].t) {
			continue
		}
		pins = append(pins, pin{s: s, t: times[k]})
	}
	if len(pins) < 2 {
		return nil
	}
	// Interpolated (extrapolated at the ends) time at progress s.
	// Extrapolation is clamped near the observed time span: a vehicle
	// pausing at a junction must not blow up boundary estimates.
	tLo := pins[0].t - 5
	tHi := pins[len(pins)-1].t + 5
	timeAt := func(s float64) float64 {
		var t float64
		switch {
		case s <= pins[0].s:
			p0, p1 := pins[0], pins[1]
			t = p0.t - (p0.s-s)*(p1.t-p0.t)/(p1.s-p0.s)
		case s >= pins[len(pins)-1].s:
			p0, p1 := pins[len(pins)-2], pins[len(pins)-1]
			t = p1.t + (s-p1.s)*(p1.t-p0.t)/(p1.s-p0.s)
		default:
			for i := 1; i < len(pins); i++ {
				if s <= pins[i].s {
					p0, p1 := pins[i-1], pins[i]
					t = p0.t + (s-p0.s)*(p1.t-p0.t)/(p1.s-p0.s)
					break
				}
			}
		}
		if t < tLo {
			t = tLo
		}
		if t > tHi {
			t = tHi
		}
		return t
	}
	costs := make([]float64, len(path))
	prev := timeAt(bounds[0])
	for i := range path {
		next := timeAt(bounds[i+1])
		c := next - prev
		if c < 0.1 {
			c = 0.1 // numeric floor: traversal takes some time
		}
		costs[i] = c
		prev = next
	}
	return costs
}
