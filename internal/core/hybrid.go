package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/traffic"
)

// Variable is one instantiated random variable V^{I_j}_{P}: the joint
// travel-cost distribution of path P during time-of-day interval I_j
// (Section 3.3). Rank-1 variables carry a one-dimensional histogram;
// higher ranks carry a multi-dimensional histogram over the path's
// edges.
type Variable struct {
	Path     graph.Path
	Interval int
	Support  int // number of qualified trajectories behind it
	// Hist is set for rank-1 variables, Joint for rank ≥ 2.
	Hist  *hist.Histogram
	Joint *hist.Multi
	// SpeedLimit marks rank-1 variables derived from the speed limit
	// rather than trajectories (the sparse-edge fallback of §3.1).
	SpeedLimit bool
	// TimeMin and TimeMax bound the *travel time* of the qualified
	// trajectories on the path, regardless of the cost domain; the
	// shift-and-enlarge test (Eq. 3) always advances clock time.
	TimeMin, TimeMax float64

	// multiOnce caches the Multi representation used by the Eq. 2
	// evaluators (rank-1 histograms are lifted lazily, once).
	multiOnce sync.Once
	multi     *hist.Multi
	multiErr  error
}

// Rank returns the cardinality of the variable's path.
func (v *Variable) Rank() int { return len(v.Path) }

// StorageFloats approximates the variable's memory footprint in float
// counts (Figure 12).
func (v *Variable) StorageFloats() int {
	if v.Hist != nil {
		return 3 * v.Hist.NumBuckets()
	}
	return v.Joint.StorageFloats()
}

// pathVars groups the per-interval variables of one path. sorted is
// the same set ordered by ascending interval: temporal-relevance
// selection must iterate it (not the map) so that overlap ties are
// broken deterministically — map iteration order would otherwise make
// repeated identical queries pick different variables.
type pathVars struct {
	path   graph.Path
	byIv   map[int]*Variable
	sorted []*Variable
}

// HybridGraph is the instantiated hybrid graph: the road network plus
// the path weight function W_P realized as instantiated random
// variables (Section 3.3).
type HybridGraph struct {
	G      *graph.Graph
	Params Params

	// vars indexes all instantiated variables by path key.
	vars map[string]*pathVars
	// unit indexes the rank-1 rows directly by edge, sparing the
	// per-edge path-key string the temporal-relevance scan of every
	// query would otherwise build. Edge identifiers are dense, so both
	// per-edge indexes are flat slices (length G.NumEdges()) — a query
	// touches them once per row and a slice load beats a map probe.
	unit []*pathVars
	// unitCount counts edges with a trajectory-backed rank-1 row
	// (non-nil unit entries); the epoch builder reads it as |E′|.
	unitCount int
	// byStart lists instantiated paths by their first edge, used to
	// build candidate arrays (Section 4.1.3). Sorted by rank.
	byStart [][]*pathVars
	// fallbacks caches speed-limit rank-1 variables, built on demand;
	// the mutex keeps concurrent queries safe.
	fbMu      sync.Mutex
	fallbacks map[graph.EdgeID]*Variable

	// Build statistics.
	stats BuildStats
}

// BuildStats summarizes an instantiation run; the Section 5.2.1
// experiments (Figures 8–10, 12) read these.
type BuildStats struct {
	// VariablesByRank[r] counts instantiated (trajectory-backed)
	// variables of rank r+1.
	VariablesByRank []int
	// CoveredEdges is |E′|: edges covered by trajectory-backed
	// variables. EdgesWithData is |E″|: edges with ≥ 1 occurrence.
	CoveredEdges, EdgesWithData int
	// StorageFloats approximates total variable memory (float count).
	StorageFloats int
	// SupportTotal sums the qualified-trajectory counts.
	SupportTotal int
}

// Coverage returns |E′| / |E″| (Figure 8(a)).
func (s BuildStats) Coverage() float64 {
	if s.EdgesWithData == 0 {
		return 0
	}
	return float64(s.CoveredEdges) / float64(s.EdgesWithData)
}

// TotalVariables sums VariablesByRank.
func (s BuildStats) TotalVariables() int {
	n := 0
	for _, c := range s.VariablesByRank {
		n += c
	}
	return n
}

// Build instantiates the hybrid graph from a trajectory collection:
// rank-1 variables per edge and interval (Section 3.1), then bottom-up
// growth of higher-rank joint variables wherever ≥ β qualified
// trajectories support them (Section 3.2).
func Build(g *graph.Graph, data *gps.Collection, params Params) (*HybridGraph, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	h := &HybridGraph{
		G:         g,
		Params:    params,
		vars:      make(map[string]*pathVars),
		unit:      make([]*pathVars, g.NumEdges()),
		byStart:   make([][]*pathVars, g.NumEdges()),
		fallbacks: make(map[graph.EdgeID]*Variable),
	}
	h.stats.VariablesByRank = make([]int, params.MaxRank)

	type frontierEntry struct {
		path graph.Path
		occs []gps.Occurrence
	}
	// rank1Result is one edge's instantiation outcome, computed in
	// parallel and merged deterministically afterwards.
	type rank1Result struct {
		hasData  bool
		covered  bool
		vars     []*Variable
		frontier *frontierEntry
		err      error
	}

	workers := params.Workers
	if workers < 1 {
		workers = 1
	}

	// Rank 1: group per-edge occurrences by interval. Edges are
	// independent, so this parallelizes directly (the paper trains with
	// 48 threads the same way).
	edges := g.Edges()
	r1 := pmap(len(edges), workers, func(i int) rank1Result {
		e := edges[i]
		var res rank1Result
		occs := data.EdgeOccurrences(e.ID)
		if len(occs) == 0 {
			return res
		}
		res.hasData = true
		path := graph.Path{e.ID}
		byIv := h.groupByInterval(data, path, occs)
		for iv, ivOccs := range byIv {
			if len(ivOccs) < params.Beta {
				continue
			}
			v, err := h.buildRank1Variable(data, path, iv, ivOccs)
			if err != nil {
				res.err = fmt.Errorf("core: edge %d interval %d: %w", e.ID, iv, err)
				return res
			}
			res.vars = append(res.vars, v)
			res.covered = true
		}
		// Any edge with data enters the growth frontier; extensions
		// re-check β per interval.
		if len(occs) >= params.Beta {
			res.frontier = &frontierEntry{path: path, occs: occs}
		}
		return res
	})
	var frontier []frontierEntry
	for _, res := range r1 {
		if res.err != nil {
			return nil, res.err
		}
		if res.hasData {
			h.stats.EdgesWithData++
		}
		if res.covered {
			h.stats.CoveredEdges++
		}
		for _, v := range res.vars {
			h.addVariable(v)
		}
		if res.frontier != nil {
			frontier = append(frontier, *res.frontier)
		}
	}

	// Ranks 2..MaxRank: Apriori-style growth, parallel over the
	// frontier. A rank-k extension can only reach β qualified
	// trajectories in some interval if its rank-(k−1) prefix has ≥ β
	// occurrences overall.
	type growResult struct {
		vars []*Variable
		next []frontierEntry
		err  error
	}
	for rank := 2; rank <= params.MaxRank && len(frontier) > 0; rank++ {
		results := pmap(len(frontier), workers, func(fi int) growResult {
			fe := frontier[fi]
			var res growResult
			// Group candidate continuations by next edge.
			ext := make(map[graph.EdgeID][]gps.Occurrence)
			n := len(fe.path)
			for _, oc := range fe.occs {
				tp := data.Traj(oc.Traj).Path
				if oc.Pos+n < len(tp) {
					e := tp[oc.Pos+n]
					ext[e] = append(ext[e], oc)
				}
			}
			// Deterministic order over extension edges.
			keys := make([]graph.EdgeID, 0, len(ext))
			for e := range ext {
				keys = append(keys, e)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, e := range keys {
				occs := ext[e]
				if len(occs) < params.Beta {
					continue
				}
				newPath := append(fe.path.Clone(), e)
				byIv := h.groupByInterval(data, newPath, occs)
				created := false
				for iv, ivOccs := range byIv {
					if len(ivOccs) < params.Beta {
						continue
					}
					v, err := h.buildJointVariable(data, newPath, iv, ivOccs)
					if err != nil {
						res.err = fmt.Errorf("core: path %v interval %d: %w", newPath, iv, err)
						return res
					}
					res.vars = append(res.vars, v)
					created = true
				}
				if created || len(occs) >= params.Beta {
					res.next = append(res.next, frontierEntry{path: newPath, occs: occs})
				}
			}
			return res
		})
		var next []frontierEntry
		for _, res := range results {
			if res.err != nil {
				return nil, res.err
			}
			for _, v := range res.vars {
				h.addVariable(v)
			}
			next = append(next, res.next...)
		}
		frontier = next
	}

	// Keep candidate rows sorted by rank (ties broken by path key so
	// parallel builds are deterministic); Algorithm 1 takes the
	// rightmost (highest-rank) entry per row directly.
	for _, list := range h.byStart {
		sort.Slice(list, func(i, j int) bool {
			if len(list[i].path) != len(list[j].path) {
				return len(list[i].path) < len(list[j].path)
			}
			return list[i].path.Key() < list[j].path.Key()
		})
	}
	return h, nil
}

// groupByInterval buckets the occurrences of path p by the α-interval
// of the trajectory's arrival time at the occurrence position ("T
// occurred on P at t", Section 2.1).
func (h *HybridGraph) groupByInterval(data *gps.Collection, p graph.Path, occs []gps.Occurrence) map[int][]gps.Occurrence {
	out := make(map[int][]gps.Occurrence)
	for _, oc := range occs {
		t := data.Traj(oc.Traj).ArrivalAt(oc.Pos)
		iv := h.Params.IntervalOf(t)
		out[iv] = append(out[iv], oc)
	}
	return out
}

// buildHistogram builds a rank-1 histogram with the configured bucket
// selection (Auto by default, Sta-b when StaticBuckets is set).
func (h *HybridGraph) buildHistogram(samples []float64) (*hist.Histogram, error) {
	if h.Params.StaticBuckets > 0 {
		return hist.StaticHistogram(samples, h.Params.Resolution, h.Params.StaticBuckets)
	}
	hg, _, err := hist.AutoHistogram(samples, h.Params.Resolution, h.Params.Auto)
	return hg, err
}

// buildJoint builds a rank ≥ 2 joint histogram.
func (h *HybridGraph) buildJoint(rows [][]float64) (*hist.Multi, error) {
	cfg := hist.FromSamplesConfig{
		Resolution:   h.Params.Resolution,
		Auto:         h.Params.Auto,
		FixedBuckets: h.Params.StaticBuckets,
	}
	return hist.NewMultiFromSamples(rows, cfg)
}

// buildRank1Variable instantiates the rank-1 variable of single-edge
// path p for interval iv from its qualified occurrences. Build and the
// incremental epoch builder share this code path, which is what makes
// an incremental rebuild of a touched variable byte-identical to a
// full retrain: identical samples in identical order through identical
// arithmetic.
func (h *HybridGraph) buildRank1Variable(data *gps.Collection, path graph.Path, iv int, ivOccs []gps.Occurrence) (*Variable, error) {
	samples := make([]float64, len(ivOccs))
	tMin, tMax := mathInf(1), mathInf(-1)
	for i, oc := range ivOccs {
		m := data.Traj(oc.Traj)
		samples[i] = h.costValue(m, oc.Pos, 1)
		tt := m.EdgeCosts[oc.Pos]
		if tt < tMin {
			tMin = tt
		}
		if tt > tMax {
			tMax = tt
		}
	}
	hg, err := h.buildHistogram(samples)
	if err != nil {
		return nil, err
	}
	return &Variable{
		Path: path.Clone(), Interval: iv, Support: len(ivOccs),
		Hist: hg, TimeMin: tMin, TimeMax: tMax,
	}, nil
}

// buildJointVariable instantiates the rank ≥ 2 joint variable of path
// p for interval iv from its qualified occurrences; shared between
// Build and the incremental epoch builder (see buildRank1Variable).
// The path is stored as passed, not cloned.
func (h *HybridGraph) buildJointVariable(data *gps.Collection, path graph.Path, iv int, ivOccs []gps.Occurrence) (*Variable, error) {
	rows := make([][]float64, len(ivOccs))
	tMin, tMax := mathInf(1), mathInf(-1)
	for i, oc := range ivOccs {
		m := data.Traj(oc.Traj)
		row := make([]float64, len(path))
		for j := range path {
			row[j] = h.costValueAt(m, oc.Pos+j)
		}
		rows[i] = row
		tt := m.CostOfSubPath(oc.Pos, len(path))
		if tt < tMin {
			tMin = tt
		}
		if tt > tMax {
			tMax = tt
		}
	}
	joint, err := h.buildJoint(rows)
	if err != nil {
		return nil, err
	}
	return &Variable{
		Path: path, Interval: iv,
		Support: len(ivOccs), Joint: joint,
		TimeMin: tMin, TimeMax: tMax,
	}, nil
}

// addVariable registers a variable in the indexes and statistics.
func (h *HybridGraph) addVariable(v *Variable) {
	key := v.Path.Key()
	pv, ok := h.vars[key]
	if !ok {
		pv = &pathVars{path: v.Path, byIv: make(map[int]*Variable)}
		h.vars[key] = pv
		start := v.Path[0]
		h.byStart[start] = append(h.byStart[start], pv)
		if len(v.Path) == 1 {
			if h.unit[start] == nil {
				h.unitCount++
			}
			h.unit[start] = pv
		}
	}
	pv.byIv[v.Interval] = v
	i := sort.Search(len(pv.sorted), func(i int) bool { return pv.sorted[i].Interval >= v.Interval })
	if i < len(pv.sorted) && pv.sorted[i].Interval == v.Interval {
		pv.sorted[i] = v
	} else {
		pv.sorted = append(pv.sorted, nil)
		copy(pv.sorted[i+1:], pv.sorted[i:])
		pv.sorted[i] = v
	}
	h.stats.VariablesByRank[v.Rank()-1]++
	h.stats.StorageFloats += v.StorageFloats()
	h.stats.SupportTotal += v.Support
}

// Stats returns the build statistics.
func (h *HybridGraph) Stats() BuildStats { return h.stats }

// LookupInterval returns the variable of path p for interval iv.
func (h *HybridGraph) LookupInterval(p graph.Path, iv int) *Variable {
	pv, ok := h.vars[p.Key()]
	if !ok {
		return nil
	}
	return pv.byIv[iv]
}

// ForEachVariable visits every trajectory-backed variable in a
// deterministic order (path key, then interval), so that model
// serialization is byte-stable across runs and across serial/parallel
// builds of the same data.
func (h *HybridGraph) ForEachVariable(fn func(*Variable)) {
	keys := make([]string, 0, len(h.vars))
	for k := range h.vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pv := h.vars[k]
		ivs := make([]int, 0, len(pv.byIv))
		for iv := range pv.byIv {
			ivs = append(ivs, iv)
		}
		sort.Ints(ivs)
		for _, iv := range ivs {
			fn(pv.byIv[iv])
		}
	}
}

func (h *HybridGraph) fallbackVariable(e graph.EdgeID) *Variable {
	h.fbMu.Lock()
	defer h.fbMu.Unlock()
	if v, ok := h.fallbacks[e]; ok {
		return v
	}
	ed := h.G.Edge(e)
	ff := ed.FreeFlowSeconds()
	val := ff
	if h.Params.Domain == DomainEmissions {
		val = traffic.Emissions(ed, ff)
	}
	v := &Variable{
		Path:       graph.Path{e},
		Interval:   -1,
		Hist:       hist.Point(val, h.Params.Resolution),
		SpeedLimit: true,
		TimeMin:    ff,
		TimeMax:    ff,
	}
	h.fallbacks[e] = v
	return v
}

// costValue returns the configured-domain cost of the n-edge sub-path
// of m starting at pos.
func (h *HybridGraph) costValue(m *gps.Matched, pos, n int) float64 {
	var s float64
	for j := pos; j < pos+n; j++ {
		s += h.costValueAt(m, j)
	}
	return s
}

// costValueAt returns one edge's cost in the configured domain.
func (h *HybridGraph) costValueAt(m *gps.Matched, pos int) float64 {
	if h.Params.Domain == DomainEmissions {
		return m.Emissions[pos]
	}
	return m.EdgeCosts[pos]
}

func mathInf(sign int) float64 { return math.Inf(sign) }

// pmap computes fn(i) for i in [0, n) using the given number of worker
// goroutines, preserving index order in the result.
func pmap[R any](n, workers int, fn func(int) R) []R {
	out := make([]R, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	idx := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
