package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/gps"
	"repro/internal/graph"
)

// TimeInterval is an absolute-time interval [Lo, Hi] used by the
// shift-and-enlarge computation (Eq. 3).
type TimeInterval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (ti TimeInterval) Width() float64 { return ti.Hi - ti.Lo }

// sae implements SAE([ts,te], V) = [ts + V.min, te + V.max] (Eq. 3),
// always over travel time (even when the cost domain is emissions).
func sae(ti TimeInterval, v *Variable) TimeInterval {
	return TimeInterval{Lo: ti.Lo + v.TimeMin, Hi: ti.Hi + v.TimeMax}
}

// overlapWithInterval measures |I_j ∩ UI| where I_j is a time-of-day
// interval and UI an absolute interval; the interval repeats daily, so
// the overlap accumulates across the days UI spans. A UI narrower than
// a day visits its few daily copies of I_j; a wider one — a relayed
// interval is wire data, and may span years — is measured in O(1).
func (h *HybridGraph) overlapWithInterval(iv int, ui TimeInterval) float64 {
	ivLo, ivHi := h.Params.IntervalBounds(iv)
	day := gps.SecondsPerDay
	if ui.Width() == 0 {
		// A point departure interval (the query's own departure time,
		// UI_1 = [t, t]): relevance is containment.
		tod := gps.SecondsOfDay(ui.Lo)
		if tod >= ivLo && tod < ivHi {
			return 1
		}
		return 0
	}
	if ui.Width() >= day {
		return dailyMeasure(ivLo, ivHi, ui.Hi) - dailyMeasure(ivLo, ivHi, ui.Lo)
	}
	var total float64
	// Iterate the daily copies of I_j that can intersect UI.
	firstDay := int((ui.Lo - ivHi) / day)
	for d := firstDay - 1; ; d++ {
		lo := float64(d)*day + ivLo
		hi := float64(d)*day + ivHi
		if lo > ui.Hi {
			break
		}
		ol := minF(hi, ui.Hi) - maxF(lo, ui.Lo)
		if ol > 0 {
			total += ol
		}
	}
	return total
}

// dailyMeasure is the measure of the daily copies of the time-of-day
// interval [ivLo, ivHi) below absolute time x, counted from time 0
// (negative below it): the full days before x's day, each contributing
// the interval's length, plus the part of x's own day's copy before x.
func dailyMeasure(ivLo, ivHi, x float64) float64 {
	d := math.Floor(x / gps.SecondsPerDay)
	part := minF(maxF(x-d*gps.SecondsPerDay-ivLo, 0), ivHi-ivLo)
	return d*(ivHi-ivLo) + part
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// CandidateRow is one row of the two-dimensional candidate array
// (Table 1): the spatio-temporally relevant variables whose paths
// start at the k-th edge of the query path, ordered by rank.
type CandidateRow struct {
	Edge graph.EdgeID
	Vars []*Variable // ascending rank; always ≥ 1 entry (unit fallback)
}

// CandidateArray holds one row per query-path edge plus the updated
// departure intervals UI_k used for temporal relevance.
type CandidateArray struct {
	Rows []CandidateRow
	UIs  []TimeInterval

	// Per-row overlap memo: |I_j ∩ UI_k| depends only on the interval
	// index and the row's departure interval, but is probed once per
	// candidate variable — many of which share intervals. ovSet uses a
	// generation counter so clearing the memo between rows is O(1).
	ovPr  []float64
	ovSet []uint32
	ovGen uint32

	// Relevant-interval window of the current row: interval j can have
	// positive overlap with UI_k only when (j − ivFirst) mod nIv ≤
	// ivSpan. The window is conservative (it may include zero-overlap
	// boundary intervals, which never win selection), so filtering with
	// it changes no picks.
	ivFirst, ivSpan, ivCount int
}

// ivRelevant reports whether interval j can overlap the current row's
// departure interval.
func (ca *CandidateArray) ivRelevant(j int) bool {
	d := j - ca.ivFirst
	if d < 0 {
		d += ca.ivCount
	}
	return d <= ca.ivSpan
}

// caPool recycles candidate arrays: one is built and discarded per
// query, and its row/interval slices dominate the per-query allocation
// profile otherwise.
var caPool = sync.Pool{New: func() any { return new(CandidateArray) }}

// Release returns the candidate array to the internal pool. Call it
// once the decomposition has been selected; decompositions stay valid
// (they reference the model's variables, never the array). The array
// must not be used after Release.
func (ca *CandidateArray) Release() {
	caPool.Put(ca)
}

// getCandidateArray returns a pooled array resized for an n-edge query
// with empty rows.
func getCandidateArray(n int) *CandidateArray {
	ca := caPool.Get().(*CandidateArray)
	if cap(ca.Rows) < n {
		ca.Rows = make([]CandidateRow, n)
	} else {
		ca.Rows = ca.Rows[:n]
		for k := range ca.Rows {
			ca.Rows[k].Edge = 0
			ca.Rows[k].Vars = ca.Rows[k].Vars[:0]
		}
	}
	if cap(ca.UIs) < n {
		ca.UIs = make([]TimeInterval, n)
	} else {
		ca.UIs = ca.UIs[:n]
	}
	return ca
}

// BuildCandidateArray computes the spatially and temporally relevant
// instantiated variables for query path p departing at t
// (Section 4.1.3). Row k always contains a rank-1 variable: the
// trajectory-backed one when temporally relevant, else the speed-limit
// fallback, so a decomposition covering p always exists.
func (h *HybridGraph) BuildCandidateArray(p graph.Path, t float64) (*CandidateArray, error) {
	ca, _, err := h.buildCandidateArrayFrom(p, TimeInterval{Lo: t, Hi: t})
	return ca, err
}

// buildCandidateArrayFrom is BuildCandidateArray seeded with an
// arbitrary departure interval — the continuation case of cross-shard
// evaluation, where UI_0 is the interval relayed from the previous
// segment rather than the query's point departure. It also returns the
// interval past the last edge (the next segment's seed). UI chaining
// is a left fold over single-edge variables, so segment-local chaining
// from a relayed interval reproduces the whole-path intervals exactly.
func (h *HybridGraph) buildCandidateArrayFrom(p graph.Path, ui0 TimeInterval) (*CandidateArray, TimeInterval, error) {
	if !h.G.ValidPath(p) {
		return nil, TimeInterval{}, fmt.Errorf("core: query %v is not a valid path", p)
	}
	ca := getCandidateArray(len(p))
	nIv := h.Params.NumIntervals()
	ivSec := h.Params.IntervalSeconds()
	// One pass over the rows: the departure interval UI_k is chained
	// per Eq. 3 (driven by the rank-1 variables of the preceding edges)
	// and consumed by row k's relevance scan in the same iteration, so
	// the per-row overlap memo serves both the unit-variable pick and
	// every candidate variable of the row.
	ui := ui0
	for k := range p {
		ca.UIs[k] = ui
		ca.beginRow(nIv, ui, ivSec)
		unit := h.bestUnitVariable(p[k], ui, ca)
		ca.Rows[k].Edge = p[k]
		// Spatial relevance: instantiated paths starting at p[k] that
		// are sub-paths of p aligned at position k.
		for _, pv := range h.byStart[p[k]] {
			if k+len(pv.path) > len(p) {
				continue
			}
			aligned := true
			for j, e := range pv.path {
				if p[k+j] != e {
					aligned = false
					break
				}
			}
			if !aligned {
				continue
			}
			// Temporal relevance: the variable's interval must
			// intersect UI_k; among multiple intervals of the same
			// path, keep the largest-overlap one. Iterating the
			// interval-sorted view (never the map) breaks overlap
			// ties toward the earliest interval, keeping repeated
			// queries deterministic.
			var best *Variable
			var bestOverlap float64
			for _, v := range pv.sorted {
				if !ca.ivRelevant(v.Interval) {
					continue // provably zero overlap; cannot win
				}
				ol := ca.overlapMemo(h, v.Interval, ui)
				if ol > bestOverlap {
					bestOverlap = ol
					best = v
				}
			}
			if best != nil {
				ca.Rows[k].Vars = append(ca.Rows[k].Vars, best)
			}
		}
		// Guarantee a rank-1 entry.
		hasUnit := false
		for _, v := range ca.Rows[k].Vars {
			if v.Rank() == 1 {
				hasUnit = true
				break
			}
		}
		if !hasUnit {
			vars := append(ca.Rows[k].Vars, nil)
			copy(vars[1:], vars)
			vars[0] = h.fallbackVariable(p[k])
			ca.Rows[k].Vars = vars
		}
		sortByRank(ca.Rows[k].Vars)
		ui = sae(ui, unit)
	}
	return ca, ui, nil
}

// decomposeFrom is the one way from a path to its decomposition: opt's
// pick over the candidate array seeded with ui0 (see
// buildCandidateArrayFrom), built into dst when it is non-nil, and the
// interval past the last edge.
func (h *HybridGraph) decomposeFrom(p graph.Path, ui0 TimeInterval, opt QueryOptions, dst *Decomposition) (*Decomposition, TimeInterval, error) {
	ca, next, err := h.buildCandidateArrayFrom(p, ui0)
	if err != nil {
		return nil, TimeInterval{}, err
	}
	defer ca.Release()
	de, err := ca.decomposition(opt, dst)
	return de, next, err
}

// suffixVariable reports whether a variable's path is a suffix of p of
// two or more edges, by which a row of p[:len(p)-1]'s candidate array
// differs from p's. None is longer than the ranks the model counts.
func (h *HybridGraph) suffixVariable(p graph.Path) bool {
	n := len(p)
	for k := max(0, n-len(h.stats.VariablesByRank)); k < n-1; k++ {
		for _, pv := range h.byStart[p[k]] {
			if len(pv.path) == n-k && slices.Equal(pv.path, p[k:]) {
				return true
			}
		}
	}
	return false
}

// beginRow readies the overlap memo and the relevant-interval window
// for a new row (a new UI).
func (ca *CandidateArray) beginRow(nIv int, ui TimeInterval, ivSec float64) {
	if cap(ca.ovPr) < nIv {
		ca.ovPr = make([]float64, nIv)
		ca.ovSet = make([]uint32, nIv)
		ca.ovGen = 1
	} else {
		ca.ovPr = ca.ovPr[:nIv]
		ca.ovSet = ca.ovSet[:nIv]
		ca.ovGen++
		if ca.ovGen == 0 { // generation wrap: invalidate explicitly
			clear(ca.ovSet)
			ca.ovGen = 1
		}
	}
	ca.ivCount = nIv
	// The UI covers the circular arc starting at tod(ui.Lo) of length
	// ui.Width(); only the α-intervals touching that arc can overlap.
	// A window spanning a full day admits every interval.
	if ui.Width() >= gps.SecondsPerDay-ivSec {
		ca.ivFirst, ca.ivSpan = 0, nIv
		return
	}
	a := gps.SecondsOfDay(ui.Lo)
	first := int(a / ivSec)
	span := int((a+ui.Width())/ivSec) - first
	if first >= nIv { // tod rounding at the day boundary
		first = nIv - 1
	}
	if span >= nIv {
		span = nIv
	}
	ca.ivFirst, ca.ivSpan = first, span
}

// overlapMemo returns h.overlapWithInterval(iv, ui) memoized for the
// current row. The cached value is exactly the function's result —
// identical floats, identical selections.
func (ca *CandidateArray) overlapMemo(h *HybridGraph, iv int, ui TimeInterval) float64 {
	if iv < 0 || iv >= len(ca.ovPr) {
		return h.overlapWithInterval(iv, ui)
	}
	if ca.ovSet[iv] == ca.ovGen {
		return ca.ovPr[iv]
	}
	ol := h.overlapWithInterval(iv, ui)
	ca.ovPr[iv] = ol
	ca.ovSet[iv] = ca.ovGen
	return ol
}

func sortByRank(vs []*Variable) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Rank() < vs[j-1].Rank(); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// bestUnitVariable picks the rank-1 variable of edge e whose interval
// overlaps ui the most, falling back to the speed-limit variable. ca
// (optional) supplies the row-scoped overlap memo.
func (h *HybridGraph) bestUnitVariable(e graph.EdgeID, ui TimeInterval, ca *CandidateArray) *Variable {
	var pv *pathVars
	if int(e) >= 0 && int(e) < len(h.unit) {
		pv = h.unit[e]
	}
	ok := pv != nil
	if ok {
		// Sorted iteration: overlap ties resolve to the earliest
		// interval, deterministically (see BuildCandidateArray).
		var best *Variable
		var bestOverlap float64
		for _, v := range pv.sorted {
			var ol float64
			if ca != nil {
				if !ca.ivRelevant(v.Interval) {
					continue // provably zero overlap; cannot win
				}
				ol = ca.overlapMemo(h, v.Interval, ui)
			} else {
				ol = h.overlapWithInterval(v.Interval, ui)
			}
			if ol > bestOverlap {
				bestOverlap = ol
				best = v
			}
		}
		if best != nil {
			return best
		}
	}
	return h.fallbackVariable(e)
}

// Decomposition is an ordered sequence of selected variables whose
// paths cover the query path (Section 4.1.1). Pos[i] is the position
// of Paths[i]'s first edge within the query path.
type Decomposition struct {
	Vars []*Variable
	Pos  []int
}

// newDecomposition returns an empty decomposition with room for n
// factors; up to 16, header and columns are one allocation, in the
// smallest of three sizes that fits.
func newDecomposition(n int) *Decomposition {
	switch {
	case n <= 4:
		b := new(struct {
			de Decomposition
			v  [4]*Variable
			p  [4]int
		})
		b.de.Vars, b.de.Pos = b.v[:0:n], b.p[:0:n]
		return &b.de
	case n <= 8:
		b := new(struct {
			de Decomposition
			v  [8]*Variable
			p  [8]int
		})
		b.de.Vars, b.de.Pos = b.v[:0:n], b.p[:0:n]
		return &b.de
	case n <= 16:
		b := new(struct {
			de Decomposition
			v  [16]*Variable
			p  [16]int
		})
		b.de.Vars, b.de.Pos = b.v[:0:n], b.p[:0:n]
		return &b.de
	}
	return &Decomposition{Vars: make([]*Variable, 0, n), Pos: make([]int, 0, n)}
}

// reuseDecomposition returns dst emptied, with room for n factors in
// its columns, or a new decomposition when dst is nil.
func reuseDecomposition(dst *Decomposition, n int) *Decomposition {
	if dst == nil {
		return newDecomposition(n)
	}
	dst.Vars = slices.Grow(dst.Vars[:0], n)
	dst.Pos = slices.Grow(dst.Pos[:0], n)
	return dst
}

// pickRule is how a method picks one variable per candidate row: OD's
// highest rank (capped at maxRank; 0 means uncapped), RD's random one
// drawn from rnd, HP's pair and LB's unit.
type pickRule struct {
	method  Method
	maxRank int
	rnd     Intner
}

// pick returns the rule's variable of a row, whose variables ascend by
// rank with the rank-1 one first.
func (r pickRule) pick(row []*Variable) *Variable {
	switch r.method {
	case MethodOD:
		for i := len(row) - 1; i >= 0; i-- {
			if r.maxRank <= 0 || row[i].Rank() <= r.maxRank {
				return row[i]
			}
		}
	case MethodRD:
		return row[r.rnd.Intn(len(row))]
	case MethodHP:
		for _, v := range row {
			if v.Rank() == 2 {
				return v
			}
		}
	}
	return row[0]
}

// selectFactors is the scan every method shares: pick one variable per
// row and keep it unless it is a sub-path of an earlier pick — with
// picks aligned at their rows, iff it ends no later than the furthest
// coverage. The picks collect on the stack, then land in dst (see
// reuseDecomposition), so a new decomposition is allocated once, at
// its exact size.
func (ca *CandidateArray) selectFactors(r pickRule, dst *Decomposition) *Decomposition {
	var varsBuf [64]*Variable
	var posBuf [64]int
	vars, pos := varsBuf[:0], posBuf[:0]
	covered := -1 // last query position covered so far
	for k, row := range ca.Rows {
		v := r.pick(row.Vars)
		if end := k + v.Rank() - 1; end > covered {
			vars = append(vars, v)
			pos = append(pos, k)
			covered = end
		}
	}
	de := reuseDecomposition(dst, len(vars))
	de.Vars = append(de.Vars, vars...)
	de.Pos = append(de.Pos, pos...)
	return de
}

// Cardinality returns the number of paths in the decomposition.
func (d *Decomposition) Cardinality() int { return len(d.Vars) }

// MaxRank returns the largest rank among the selected variables.
func (d *Decomposition) MaxRank() int {
	m := 0
	for _, v := range d.Vars {
		if v.Rank() > m {
			m = v.Rank()
		}
	}
	return m
}

// CoarsestDecomposition implements Algorithm 1: per row take the
// highest-rank relevant variable (optionally capped at maxRank; 0
// means uncapped), omit paths that are sub-paths of already selected
// ones, and return the unique coarsest decomposition (Theorem 4).
func (ca *CandidateArray) CoarsestDecomposition(maxRank int) *Decomposition {
	return ca.selectFactors(pickRule{method: MethodOD, maxRank: maxRank}, nil)
}

// Intner is any deterministic integer source (math/rand.Rand works).
type Intner interface {
	Intn(n int) int
}

// RandomDecomposition builds the RD baseline's decomposition: per row
// a uniformly random-rank relevant variable is considered, and the
// usual sub-path elimination is applied.
func (ca *CandidateArray) RandomDecomposition(rnd Intner) *Decomposition {
	return ca.selectFactors(pickRule{method: MethodRD, rnd: rnd}, nil)
}

// PairDecomposition builds the HP baseline's decomposition: the
// rank-2 variable for every adjacent edge pair when relevant, unit
// variables to fill pairs without data. Rank > 2 variables are never
// used (the HP method of [10] models pairwise dependence only).
func (ca *CandidateArray) PairDecomposition() *Decomposition {
	return ca.selectFactors(pickRule{method: MethodHP}, nil)
}

// UnitDecomposition builds the LB baseline's decomposition: one rank-1
// variable per edge (the legacy edge-granularity model of Section 2.3).
// A rank-1 pick is never a sub-path of an earlier one, so every row
// keeps its pick.
func (ca *CandidateArray) UnitDecomposition() *Decomposition {
	return ca.selectFactors(pickRule{method: MethodLB}, nil)
}

// decomposition is the one choice of decomposition by method: OD's
// coarsest (capped at opt.RankCap), RD's random one drawn from
// opt.Seed, HP's pairs or LB's units, into dst (see
// reuseDecomposition).
func (ca *CandidateArray) decomposition(opt QueryOptions, dst *Decomposition) (*Decomposition, error) {
	r := pickRule{method: opt.Method}
	switch opt.Method {
	case MethodOD:
		r.maxRank = opt.RankCap
	case MethodRD:
		r.rnd = rand.New(rand.NewSource(opt.Seed))
	case MethodHP, MethodLB:
	default:
		return nil, fmt.Errorf("core: unknown method %q", opt.Method)
	}
	return ca.selectFactors(r, dst), nil
}

// Validate checks the Section 4.1.1 decomposition conditions against
// the query path.
func (d *Decomposition) Validate(query graph.Path) error {
	if len(d.Vars) == 0 {
		return fmt.Errorf("core: empty decomposition")
	}
	// Typical queries fit the stack array; only pathological path
	// lengths allocate.
	var coveredArr [64]bool
	var covered []bool
	if len(query) <= len(coveredArr) {
		covered = coveredArr[:len(query)]
	} else {
		covered = make([]bool, len(query))
	}
	prevPos := -1
	for i, v := range d.Vars {
		pos := d.Pos[i]
		if pos <= prevPos {
			return fmt.Errorf("core: decomposition not ordered by start position")
		}
		prevPos = pos
		if pos < 0 || pos >= len(query) {
			// Checked separately from the overrun test below: on
			// untrusted positions pos+Rank() can overflow and wrap
			// negative, slipping past the bound into an index panic.
			return fmt.Errorf("core: path %v starts outside the query (position %d)", v.Path, pos)
		}
		if pos+v.Rank() > len(query) {
			return fmt.Errorf("core: path %v overruns the query", v.Path)
		}
		for j, e := range v.Path {
			if query[pos+j] != e {
				return fmt.Errorf("core: path %v misaligned at query position %d", v.Path, pos)
			}
			covered[pos+j] = true
		}
		// Condition (3): no selected path is a sub-path of another.
		for j, w := range d.Vars {
			if i == j {
				continue
			}
			if d.Pos[j] <= pos && d.Pos[j]+w.Rank() >= pos+v.Rank() {
				return fmt.Errorf("core: %v is a sub-path of %v", v.Path, w.Path)
			}
		}
	}
	for k, c := range covered {
		if !c {
			return fmt.Errorf("core: query edge at position %d not covered", k)
		}
	}
	return nil
}
