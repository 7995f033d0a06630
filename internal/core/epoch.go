package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
)

// This file implements incremental model maintenance: building the
// next epoch's hybrid graph from the previous one plus a batch of
// newly matched trajectories, rebuilding only the variables the batch
// touches (copy-on-write) while sharing everything else by pointer
// with the previous epoch, which keeps serving concurrently.
//
// Two modes exist. Exact mode (ApplyBatchExact) extends the training
// collection and re-instantiates every touched (path, interval)
// variable from its full occurrence list through the same code path
// Build uses — the result is byte-identical to a full retrain on the
// concatenated data. This works because variable existence is a pure
// threshold on per-interval occurrence counts: a variable exists for
// (P, iv) iff |occurrences of P arriving in iv| ≥ β and |P| ≤ MaxRank
// (Section 3.2's frontier condition is equivalent: a path is extended
// iff its total occurrences reach β, and per-interval count ≥ β
// implies total ≥ β for the path and every prefix). Occurrence counts
// only grow when trajectories are appended, so only sub-paths that
// occur in the batch can gain or change variables.
//
// Decay mode (ApplyBatchDecay) implements exponential time-decay of
// stale mass without retaining the trajectory history: each touched
// variable's histogram grid is frozen and the update is an EWMA in
// the count domain — decayed old mass plus new per-cell sample counts,
// renormalized (hist.MergeDelta / hist.MergeCounts). Untouched
// variables need no decay pass at all: scaling every cell of a
// histogram by the same factor is a normalization no-op, so their
// distributions are unchanged and copy-on-write sharing is preserved.

// EpochDelta summarizes one incremental model update.
type EpochDelta struct {
	// Trajs is the number of trajectories applied.
	Trajs int
	// TouchedPaths is the number of distinct sub-paths (≤ MaxRank)
	// occurring in the batch.
	TouchedPaths int
	// RebuiltVars counts existing variables that were re-instantiated
	// or merged; NewVars counts variables that did not exist before.
	RebuiltVars, NewVars int
}

// touchedPath records one sub-path occurring in a batch and the set of
// arrival intervals the batch touches it in.
type touchedPath struct {
	path graph.Path
	ivs  map[int]bool
}

// touchedFromBatch enumerates every (sub-path, interval) pair the
// batch adds occurrences to, up to MaxRank.
func (h *HybridGraph) touchedFromBatch(batch []*gps.Matched) map[string]*touchedPath {
	touched := make(map[string]*touchedPath)
	for _, m := range batch {
		for pos := range m.Path {
			iv := h.Params.IntervalOf(m.ArrivalAt(pos))
			maxN := h.Params.MaxRank
			if pos+maxN > len(m.Path) {
				maxN = len(m.Path) - pos
			}
			for n := 1; n <= maxN; n++ {
				sub := m.Path[pos : pos+n]
				k := sub.Key()
				tp := touched[k]
				if tp == nil {
					tp = &touchedPath{path: sub.Clone(), ivs: make(map[int]bool)}
					touched[k] = tp
				}
				tp.ivs[iv] = true
			}
		}
	}
	return touched
}

// CheckTrajectory is the admission rule for a matched trajectory the
// trainer is to consume: it is not nil, it passes Matched.Validate
// against the model's graph, and it carries emissions when the model's
// cost domain is emissions. The error's text continues the name of the
// trajectory (" is nil", ": " and Validate's error, which it wraps), so
// validateBatch reports "core: batch trajectory 3 is nil".
func (h *HybridGraph) CheckTrajectory(m *gps.Matched) error {
	if m == nil {
		return errors.New(" is nil")
	}
	if err := m.Validate(h.G); err != nil {
		return fmt.Errorf(": %w", err)
	}
	if h.Params.Domain == DomainEmissions && m.Emissions == nil {
		return errors.New(" has no emissions but the model's cost domain is emissions")
	}
	return nil
}

// validateBatch rejects trajectories the trainer could not consume.
func (h *HybridGraph) validateBatch(batch []*gps.Matched) error {
	for i, m := range batch {
		if err := h.CheckTrajectory(m); err != nil {
			return fmt.Errorf("core: batch trajectory %d%w", i, err)
		}
	}
	return nil
}

// sortedTouched returns the touched paths in deterministic key order.
func sortedTouched(touched map[string]*touchedPath) []string {
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedIvs(ivs map[int]bool) []int {
	out := make([]int, 0, len(ivs))
	for iv := range ivs {
		out = append(out, iv)
	}
	sort.Ints(out)
	return out
}

// arrivalIntervals returns the arrival interval of every occurrence of
// edge e, in the collection's occurrence order. An occurrence of a path
// arrives when the occurrence of its first edge does, so one pass per
// first edge serves every touched path that starts with it.
func (h *HybridGraph) arrivalIntervals(data *gps.Collection, e graph.EdgeID) []int {
	occs := data.EdgeOccurrences(e)
	ivs := make([]int, len(occs))
	for i, oc := range occs {
		ivs[i] = h.Params.IntervalOf(data.Traj(oc.Traj).ArrivalAt(oc.Pos))
	}
	return ivs
}

// touchedOccurrences returns the occurrences of path p that arrive in
// one of the intervals ivs, grouped by interval: what
// groupByInterval(OccurrencesOfPath(p)) holds under those keys, element
// for element (both walk the first edge's occurrences in order), without
// matching or grouping the occurrences of the intervals the batch did
// not touch. firstIvs is arrivalIntervals of p's first edge.
func touchedOccurrences(data *gps.Collection, p graph.Path, firstIvs []int, ivs map[int]bool) map[int][]gps.Occurrence {
	out := make(map[int][]gps.Occurrence, len(ivs))
	for i, oc := range data.EdgeOccurrences(p[0]) {
		if iv := firstIvs[i]; ivs[iv] && data.PathAt(oc, p) {
			out[iv] = append(out[iv], oc)
		}
	}
	return out
}

// ApplyBatchExact builds the next epoch's hybrid graph from the
// receiver, its training collection, and a batch of newly matched
// trajectories: the collection is extended (copy-on-write) and every
// (path, interval) variable the batch touches is re-instantiated from
// its full occurrence list through Build's own helpers. The result is
// byte-identical to Build over the concatenated data (see the file
// comment for why), shares every untouched variable with the
// receiver, and leaves the receiver fully serving.
func (h *HybridGraph) ApplyBatchExact(data *gps.Collection, batch []*gps.Matched) (*HybridGraph, *gps.Collection, EpochDelta, error) {
	delta := EpochDelta{Trajs: len(batch)}
	if data == nil {
		return nil, nil, delta, fmt.Errorf("core: exact incremental update requires the training collection; use decay mode when serving a model without data")
	}
	if err := h.validateBatch(batch); err != nil {
		return nil, nil, delta, err
	}
	if len(batch) == 0 {
		return h, data, delta, nil
	}
	next := data.Extend(batch, 0)
	touched := h.touchedFromBatch(batch)
	delta.TouchedPaths = len(touched)

	nh := h.derive()
	firstIvs := make(map[graph.EdgeID][]int) // arrivalIntervals of each touched path's first edge
	for _, k := range sortedTouched(touched) {
		tp := touched[k]
		ivsOfFirst, ok := firstIvs[tp.path[0]]
		if !ok {
			ivsOfFirst = h.arrivalIntervals(next, tp.path[0])
			firstIvs[tp.path[0]] = ivsOfFirst
		}
		byIv := touchedOccurrences(next, tp.path, ivsOfFirst, tp.ivs)
		for _, iv := range sortedIvs(tp.ivs) {
			ivOccs := byIv[iv]
			if len(ivOccs) < h.Params.Beta {
				continue
			}
			var v *Variable
			var err error
			if len(tp.path) == 1 {
				v, err = nh.buildRank1Variable(next, tp.path, iv, ivOccs)
			} else {
				v, err = nh.buildJointVariable(next, tp.path.Clone(), iv, ivOccs)
			}
			if err != nil {
				return nil, nil, delta, fmt.Errorf("core: path %v interval %d: %w", tp.path, iv, err)
			}
			if nh.put(v) {
				delta.NewVars++
			} else {
				delta.RebuiltVars++
			}
		}
	}
	nh.stats.EdgesWithData = next.NumEdgesWithData()
	return nh, next, delta, nil
}

// ApplyBatchDecay builds the next epoch by merging the batch into the
// touched variables' frozen histogram grids with exponential decay of
// the existing mass: new cell mass = factor×support×P_old + sample
// counts, renormalized. factor ∈ (0, 1] is the per-publish decay
// (e.g. 2^(−Δt/halflife)); factor 1 keeps all old mass. No trajectory
// history is needed or retained. Variables untouched by the batch keep
// their exact distributions (uniform decay cancels under
// normalization) and are shared with the receiver. Sub-paths that
// reach β occurrences within the batch itself gain fresh variables.
func (h *HybridGraph) ApplyBatchDecay(batch []*gps.Matched, factor float64) (*HybridGraph, EpochDelta, error) {
	delta := EpochDelta{Trajs: len(batch)}
	if factor <= 0 || factor > 1 || math.IsNaN(factor) {
		return nil, delta, fmt.Errorf("core: decay factor %v outside (0, 1]", factor)
	}
	if err := h.validateBatch(batch); err != nil {
		return nil, delta, err
	}
	if len(batch) == 0 {
		return h, delta, nil
	}
	batchColl := gps.NewCollection(batch, 0)
	touched := h.touchedFromBatch(batch)
	delta.TouchedPaths = len(touched)

	nh := h.derive()
	for _, k := range sortedTouched(touched) {
		tp := touched[k]
		occs := batchColl.OccurrencesOfPath(tp.path)
		byIv := nh.groupByInterval(batchColl, tp.path, occs)
		for _, iv := range sortedIvs(tp.ivs) {
			ivOccs := byIv[iv]
			if len(ivOccs) == 0 {
				continue
			}
			old := h.LookupInterval(tp.path, iv)
			var v *Variable
			var err error
			switch {
			case old == nil && len(ivOccs) < h.Params.Beta:
				continue
			case old == nil && len(tp.path) == 1:
				v, err = nh.buildRank1Variable(batchColl, tp.path, iv, ivOccs)
			case old == nil:
				v, err = nh.buildJointVariable(batchColl, tp.path.Clone(), iv, ivOccs)
			default:
				v, err = nh.mergeDecayVariable(old, batchColl, ivOccs, factor)
			}
			if err != nil {
				return nil, delta, fmt.Errorf("core: path %v interval %d: %w", tp.path, iv, err)
			}
			if nh.put(v) {
				delta.NewVars++
			} else {
				delta.RebuiltVars++
			}
		}
	}
	// Without a retained collection the exact |E″| is unknowable in
	// decay mode; keep it monotone so Coverage stays ≤ 1.
	nh.stats.EdgesWithData = max(nh.stats.EdgesWithData, nh.stats.CoveredEdges)
	return nh, delta, nil
}

// mergeDecayVariable merges new qualified occurrences into an existing
// variable on its frozen grid. Old mass re-enters the count domain as
// factor×Support×P, new samples add unit counts (snapped to the
// model's resolution, clamped to the grid), and the result is
// renormalized. Support becomes round(factor×Support)+|new|; the time
// envelope only widens.
func (h *HybridGraph) mergeDecayVariable(old *Variable, data *gps.Collection, ivOccs []gps.Occurrence, factor float64) (*Variable, error) {
	oldW := factor * float64(old.Support)
	res := h.Params.Resolution
	tMin, tMax := old.TimeMin, old.TimeMax
	support := int(math.Round(oldW)) + len(ivOccs)
	if support < len(ivOccs) {
		support = len(ivOccs)
	}
	if len(old.Path) == 1 {
		samples := make([]float64, len(ivOccs))
		for i, oc := range ivOccs {
			m := data.Traj(oc.Traj)
			samples[i] = math.Round(h.costValue(m, oc.Pos, 1)/res) * res
			tt := m.EdgeCosts[oc.Pos]
			if tt < tMin {
				tMin = tt
			}
			if tt > tMax {
				tMax = tt
			}
		}
		hg, err := old.Hist.MergeCounts(samples, oldW)
		if err != nil {
			return nil, err
		}
		return &Variable{
			Path: old.Path, Interval: old.Interval, Support: support,
			Hist: hg, TimeMin: tMin, TimeMax: tMax,
		}, nil
	}
	n := len(old.Path)
	d := hist.NewDelta()
	point := make([]float64, n)
	for _, oc := range ivOccs {
		m := data.Traj(oc.Traj)
		for j := 0; j < n; j++ {
			point[j] = math.Round(h.costValueAt(m, oc.Pos+j)/res) * res
		}
		key, err := old.Joint.BinClamped(point)
		if err != nil {
			return nil, err
		}
		d.Add(key, 1)
		tt := m.CostOfSubPath(oc.Pos, n)
		if tt < tMin {
			tMin = tt
		}
		if tt > tMax {
			tMax = tt
		}
	}
	merged, err := old.Joint.MergeDelta(d, oldW)
	if err != nil {
		return nil, err
	}
	if err := merged.Normalize(); err != nil {
		return nil, err
	}
	return &Variable{
		Path: old.Path, Interval: old.Interval, Support: support,
		Joint: merged, TimeMin: tMin, TimeMax: tMax,
	}, nil
}
