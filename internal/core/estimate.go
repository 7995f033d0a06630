package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hist"
)

// asMulti lifts a variable's distribution to a Multi so rank-1 and
// rank-k factors share one representation in the evaluators. Histogram
// support gaps become zero-mass cells. The conversion is cached on the
// variable (it is hit once per query otherwise).
func asMulti(v *Variable) (*hist.Multi, error) {
	if v.Joint != nil {
		return v.Joint, nil
	}
	v.multiOnce.Do(func() {
		v.multi, v.multiErr = histToMulti(v.Hist)
	})
	return v.multi, v.multiErr
}

func histToMulti(hg *hist.Histogram) (*hist.Multi, error) {
	bs := hg.Buckets()
	cuts := make([]float64, 0, 2*len(bs))
	for _, b := range bs {
		cuts = append(cuts, b.Lo, b.Hi)
	}
	sort.Float64s(cuts)
	bounds := cuts[:1]
	for _, c := range cuts[1:] {
		if c != bounds[len(bounds)-1] {
			bounds = append(bounds, c)
		}
	}
	m, err := hist.NewMulti([][]float64{bounds})
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		i := sort.SearchFloat64s(bounds, b.Lo)
		m.SetCell([]int{i}, b.Pr)
	}
	if err := m.Normalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// chainState is the running joint during Equation 2 evaluation: a
// Multi whose dimension 0 is the accumulated cost of all already
// folded (finished) edges, and whose remaining dimensions are the
// still-open edges, identified by their positions in the query path.
type chainState struct {
	m    *hist.Multi
	open []int // query positions of dims 1..; ascending
}

// EvalStats instruments the Figure 17 breakdown: time is measured by
// the caller; the evaluator reports structural counts.
type EvalStats struct {
	Factors       int           // number of decomposition paths applied (JC work)
	CellsTouched  int           // hyper-bucket operations during joint computation
	ResultBuckets int           // buckets of the final marginal (MC output)
	MCDur         time.Duration // time spent deriving the marginal (Fig. 17's MC)

	// mcStart is the instant the chain finished and marginalization
	// began. evaluateMode records it and leaves MCDur unset; callers
	// finalize MCDur against their own end-of-evaluation clock read,
	// sparing the hot path one time.Now per query.
	mcStart time.Time
}

// evalScratch is the arena of one chain step: flat contiguous buffers
// for the merge-join emission (packed keys + probabilities), the
// pre-shifted factor keys, the factor group runs, the fold arena and
// the fold-distribution emission log. Pooled so steady-state
// evaluation reuses warm buffers instead of allocating per
// multiply/fold call; the inner loops stream through these arrays
// sequentially. Result histograms copy out of the scratch before it
// returns to the pool; nothing pooled escapes.
type evalScratch struct {
	keys    []hist.PackedKey
	probs   []float64
	fs      []hist.PackedKey // factor keys pre-shifted to state dims
	bounds  [][]float64
	runs    []factorRun
	folds   []cellFold
	foldIdx []int
	keepIdx []int
	ivals   []hist.Bucket
	slabs   []float64 // per-slab sums of a fold that keeps no dimension
	slabHit []bool
	fEdges  []float64 // a fused step's factor bucket bounds, per cell
	pos     []int     // a step's factor positions, while its product lives
}

// positions returns the query positions factor i covers, in the
// scratch, for a product that dies before the scratch is reused.
func (sc *evalScratch) positions(de *Decomposition, i int) []int {
	sc.pos = sc.pos[:0]
	for j := 0; j < de.Vars[i].Rank(); j++ {
		sc.pos = append(sc.pos, de.Pos[i]+j)
	}
	return sc.pos
}

// boundsScratch returns the scratch's bounds slice resized to n with
// nil elements.
func (sc *evalScratch) boundsScratch(n int) [][]float64 {
	if cap(sc.bounds) < n {
		sc.bounds = make([][]float64, n)
	} else {
		sc.bounds = sc.bounds[:n]
	}
	return sc.bounds
}

// accSeedBounds is the zero-width accumulator axis every chain starts
// from; shared and immutable.
var accSeedBounds = []float64{0, 1e-9}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// factorRun is one overlap group of the aligned factor: the contiguous
// run of factor cells sharing the first nOv dimension indices (the
// conditioning tuple), plus the group's probability mass — the Eq. 2
// denominator, summed in storage order so it is bit-identical to the
// overlap marginal the map-based kernel derived.
type factorRun struct {
	start, end int
	div        float64
}

func (h *HybridGraph) evaluateMode(ctx context.Context, de *Decomposition, query graph.Path) (*hist.Histogram, EvalStats, error) {
	var st EvalStats
	if err := de.Validate(query); err != nil {
		return nil, st, err
	}
	st.Factors = len(de.Vars)

	if len(de.Vars) == 1 {
		st.mcStart = time.Now()
		out, err := h.singleFactorDist(de.Vars[0])
		if err != nil {
			return nil, st, err
		}
		st.ResultBuckets = out.NumBuckets()
		return out, st, nil
	}

	ring := ringPool.Get().(*chainRing)
	defer ring.release()
	state, err := h.runChain(ctx, de, 0, nil, nil, &st, ring[:])
	if err != nil {
		return nil, st, err
	}
	st.mcStart = time.Now()
	out, err := state.m.SumHistogram(h.Params.MaxResultBuckets)
	if err != nil {
		return nil, st, err
	}
	st.ResultBuckets = out.NumBuckets()
	return out, st, nil
}

// singleFactorDist is the answer for a decomposition of one factor
// covering the whole query: its sum distribution (the "lucky" case of
// Section 4.1), with no chain to run.
func (h *HybridGraph) singleFactorDist(v *Variable) (*hist.Histogram, error) {
	if v.Hist != nil {
		return v.Hist, nil
	}
	return v.Joint.SumHistogram(h.Params.MaxResultBuckets)
}

// runChain is the one chain loop: it applies the decomposition's
// factors from index from on to state (nil to start fresh) and returns
// the final folded state, storing each factor's folded state in inter
// when inter is non-nil. A non-nil ctx bounds the chain: its deadline is
// checked before each factor multiply, so a long evaluation stops
// burning CPU within one factor of the caller's budget expiring. Every
// product dies with its step and is recycled. Factor i's folded state
// is built into the slot own[i % len(own)], which releases the state
// it held: own is a PathSlot's slots, one per factor, or a chainRing
// for a chain whose intermediate states nobody reads, since a step
// reads only the state before it. A nil own builds new states that are
// never recycled (the memo's). The state the chain was handed is the
// caller's, and own holds the chain's states until its owner releases
// them.
func (h *HybridGraph) runChain(ctx context.Context, de *Decomposition, from int, state *chainState, inter []*chainState, st *EvalStats, own []stateSlot) (*chainState, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	for i := from; i < len(de.Vars); i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		fm, err := asMulti(de.Vars[i])
		if err != nil {
			return nil, err
		}
		into := slotAt(own, i)
		keep := into.keep(de, i)
		if state != nil && len(state.open) == 0 && len(keep) == 0 {
			state, err = state.convolveFold(fm, st, h.Params.MaxAccBuckets, into)
		} else {
			// The product of an unfused step dies with the step; its
			// positions are scratch.
			var prod chainState
			if state == nil {
				prod, err = initialState(fm, sc.positions(de, i))
			} else {
				prod, err = state.multiply(fm, sc.positions(de, i), st)
			}
			if err != nil {
				return nil, err
			}
			state, err = prod.foldTo(keep, h.Params.MaxAccBuckets, into)
			hist.PutMulti(prod.m)
		}
		if err != nil {
			return nil, err
		}
		if inter != nil {
			inter[i] = state
		}
	}
	return state, nil
}

// overlapWithNext returns the positions of factor i that the next
// factor also covers (empty for the last factor), appended to buf[:0].
func overlapWithNext(de *Decomposition, i int, buf []int) []int {
	keep := buf[:0]
	if i+1 >= len(de.Vars) {
		return keep
	}
	end := de.Pos[i] + de.Vars[i].Rank()
	for q := de.Pos[i+1]; q < end; q++ {
		keep = append(keep, q)
	}
	return keep
}

// checkStateDims rejects a factor whose dims plus the accumulator axis
// would not fit a chain state.
func checkStateDims(fm *hist.Multi) error {
	if 1+fm.Dims() > hist.MaxDims {
		return fmt.Errorf("hist: %d dimensions out of range [1,%d]", 1+fm.Dims(), hist.MaxDims)
	}
	return nil
}

// initialState wraps a factor as a chain state with a zero-width
// accumulator and all factor dims open. The factor's sorted cells map
// to state cells by prepending the accumulator index 0, which keeps
// them sorted, so the state is built columnar in one pass. Like a
// product, it is a value: it lives for one step.
func initialState(fm *hist.Multi, positions []int) (chainState, error) {
	if err := checkStateDims(fm); err != nil {
		return chainState{}, err
	}
	dims := fm.Dims()
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	bounds := sc.boundsScratch(1 + dims)
	bounds[0] = accSeedBounds
	for d := 0; d < dims; d++ {
		bounds[1+d] = fm.Bounds(d)
	}
	fKeys, fProbs := fm.Cells()
	keys := sc.keys[:0]
	probs := sc.probs[:0]
	for i, k := range fKeys {
		if fProbs[i] == 0 {
			continue
		}
		// Prepend the accumulator axis: dims shift up one, dim 0 = 0.
		// The shift is order-preserving, so the cells stay sorted.
		keys = append(keys, k.ShiftDimRight())
		probs = append(probs, fProbs[i])
	}
	sc.keys, sc.probs = keys, probs
	m, err := hist.NewMultiFromPackedCells(bounds, keys, probs)
	if err != nil {
		return chainState{}, err
	}
	return chainState{m: m, open: positions}, nil
}

// multiply advances the chain by one factor: the state's open dims
// must be a prefix of the factor's positions (its overlap); the result
// has all factor dims open. With an empty overlap this is the
// independent outer product. The product is a value: it lives for one
// step, until it is folded.
//
// The kernel is a merge-join over the two sorted cell arrays: the
// aligned factor's cells group into contiguous runs by their overlap
// prefix (with each run's mass — the Eq. 2 denominator — summed in
// storage order), each state cell binary-searches its run, and the
// emitted product cells come out already in sorted order, so the
// result is assembled columnar with no group maps, no hashing and no
// per-cell closures. All float operations replicate the map-based
// reference kernel's sequence exactly, so results are bit-identical to
// it (multiplyRef in kernel_test.go is that kernel, kept as the oracle).
//
// multiply never mutates the receiver: chain states are shared — a DFS
// parent is extended along many siblings, and the convolution memo
// hands one state to concurrent queries — so the remapped views below
// must stay local. (A receiver write here would also make results
// depend on sibling evaluation order, breaking the memo-on/memo-off
// byte-identity guarantee.)
func (s *chainState) multiply(fm *hist.Multi, positions []int, st *EvalStats) (chainState, error) {
	overlap := s.open
	var idxBuf [hist.MaxDims]int
	ovIdxF := indexOf(positions, overlap, idxBuf[:0])
	if len(ovIdxF) != len(overlap) {
		return chainState{}, fmt.Errorf("core: state open dims %v not contained in factor positions %v", overlap, positions)
	}
	for i, fd := range ovIdxF {
		if fd != i {
			// Chain states overlap the next factor on a leading prefix
			// by construction (overlaps are path prefixes), and relayed
			// states are accumulator-only.
			return chainState{}, fmt.Errorf("core: state open dims %v are not a prefix of factor positions %v", overlap, positions)
		}
	}
	if err := checkStateDims(fm); err != nil {
		return chainState{}, err
	}

	// Align overlap dimensions on a shared grid. The two sides may
	// disagree about the cost support (they come from different
	// trajectory sets), so a union remap — not a refinement — is
	// required for cell indices to be comparable. The union and the
	// translation tables are derived once per dimension; when the
	// supports already agree (the common case) the remap is the
	// identity and the histograms pass through untouched.
	sm := s.m
	fmAligned := fm
	var err error
	for i := range overlap {
		sd, fd := 1+i, i
		union := hist.UnionBounds(sm.Bounds(sd), fmAligned.Bounds(fd))
		prevS, prevF := sm, fmAligned
		sm, err = sm.RemapDim(sd, union)
		if err != nil {
			return chainState{}, err
		}
		if prevS != s.m && prevS != sm {
			hist.PutMulti(prevS) // intermediate alignment view, now dead
		}
		fmAligned, err = fmAligned.RemapDim(fd, union)
		if err != nil {
			return chainState{}, err
		}
		if prevF != fm && prevF != fmAligned {
			hist.PutMulti(prevF)
		}
	}

	fKeys, fProbs := fmAligned.Cells()
	sKeys, sProbs := sm.Cells()
	nOv := len(overlap)
	dims := fmAligned.Dims()

	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)

	// Group the aligned factor's cells into contiguous overlap runs.
	runs := sc.runs[:0]
	for i := 0; i < len(fKeys); {
		j := i + 1
		for j < len(fKeys) && fKeys[i].PrefixEq(fKeys[j], nOv) {
			j++
		}
		var div float64
		if nOv == 0 {
			// No conditioning: the independent outer product divides by
			// nothing (the run covers every factor cell).
			div = 1
		} else {
			for c := i; c < j; c++ {
				div += fProbs[c]
			}
		}
		runs = append(runs, factorRun{start: i, end: j, div: div})
		i = j
	}
	sc.runs = runs

	// Pre-shift every factor key to its state position (dims move up
	// one; dim 0 is free for the accumulator index) once, so the inner
	// emission loop is a single masked word-merge per cell instead of a
	// per-dimension scatter.
	fs := sc.fs
	if cap(fs) < len(fKeys) {
		fs = make([]hist.PackedKey, len(fKeys))
	} else {
		fs = fs[:len(fKeys)]
	}
	for i, k := range fKeys {
		fs[i] = k.ShiftDimRight()
	}
	sc.fs = fs

	// Merge-join: state cells are sorted by (acc, overlap...), runs by
	// overlap, and each emitted product key (acc, factor dims...) is
	// strictly larger than its predecessor — the result arrays are born
	// sorted.
	resKeys := sc.keys[:0]
	resProbs := sc.probs[:0]
	for ci, sk := range sKeys {
		spr := sProbs[ci]
		run, ok := findRun(fKeys, runs, sk.ShiftDimLeft(), nOv)
		if !ok {
			// The factor assigns zero probability to this overlap
			// region; the state mass there is dropped (renormalized
			// later), mirroring conditioning on a measure-zero event.
			continue
		}
		if nOv > 0 && run.div <= 0 {
			continue
		}
		if st != nil {
			st.CellsTouched += run.end - run.start
		}
		for c := run.start; c < run.end; c++ {
			v := spr * fProbs[c] / run.div
			if v == 0 {
				// The map-based kernel's SetCell dropped exact zeros.
				continue
			}
			resKeys = append(resKeys, fs[c].WithDim0From(sk))
			resProbs = append(resProbs, v)
		}
	}
	sc.keys, sc.probs = resKeys, resProbs

	// Result dims: acc + all factor dims (in factor order).
	bounds := sc.boundsScratch(1 + dims)
	bounds[0] = sm.Bounds(0)
	for d := 0; d < dims; d++ {
		bounds[1+d] = fmAligned.Bounds(d)
	}
	res, err := hist.NewMultiFromPackedCells(bounds, resKeys, resProbs)
	// The remapped alignment views die here; their buffers recycle.
	// (res copied the cells and shares only their per-dim boundary
	// slices, which PutMulti leaves alone.)
	if sm != s.m {
		hist.PutMulti(sm)
	}
	if fmAligned != fm {
		hist.PutMulti(fmAligned)
	}
	if err != nil {
		return chainState{}, err
	}
	if err := res.Normalize(); err != nil {
		return chainState{}, err
	}
	return chainState{m: res, open: positions}, nil
}

// findRun binary-searches the factor run whose overlap prefix matches
// the state cell's open dims. skShift is the state key shifted down one
// dimension (the accumulator dropped), so its leading nOv dims line up
// with the factor keys' and the comparisons are masked word compares.
func findRun(fKeys []hist.PackedKey, runs []factorRun, skShift hist.PackedKey, nOv int) (factorRun, bool) {
	if len(runs) == 0 {
		return factorRun{}, false
	}
	if nOv == 0 {
		return runs[0], true
	}
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fKeys[runs[mid].start].PrefixLess(skShift, nOv) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(runs) && fKeys[runs[lo].start].PrefixEq(skShift, nOv) {
		return runs[lo], true
	}
	return factorRun{}, false
}

// supportMin returns a lower bound L on the cost support of the state
// that multiplying s — which must have no open dimension — by fm and
// folding everything into the accumulator would produce, without doing
// either. With no overlap every (state cell, factor cell) pair is a
// product cell, whose folded interval starts at the state cell's
// accumulator bound plus the factor cell's bucket lows, added left to
// right exactly as foldCellsInto adds them; float addition is monotone,
// so the minimum over product cells is reached at the lowest occupied
// accumulator bucket. Hence L ≤ every folded cell's lo ≤ the first
// accumulator cut of the folded state ≤ Min() of its cost marginal.
func (s *chainState) supportMin(fm *hist.Multi) float64 {
	sKeys, _ := s.m.Cells()
	if len(sKeys) == 0 {
		return math.Inf(-1) // nothing to bound; the exact path reports it
	}
	accLo, _ := s.m.BucketRange(0, int(sKeys[0].Dim(0)))
	fKeys, fProbs := fm.Cells()
	dims := fm.Dims()
	lowest := math.Inf(1)
	for i, k := range fKeys {
		if fProbs[i] == 0 {
			continue // multiply drops exact-zero products
		}
		lo := accLo // foldCellsInto's 0 + accLo
		for d := 0; d < dims; d++ {
			l, _ := fm.BucketRange(d, int(k.Dim(d)))
			lo += l
		}
		if lo < lowest {
			lowest = lo
		}
	}
	if math.IsInf(lowest, 1) {
		return math.Inf(-1) // no product cell either
	}
	return lowest
}

// foldTo folds all open dims except keep into the accumulator and
// re-buckets the accumulator axis to at most maxAcc buckets, into a
// new state or, when into is non-nil, into that slot.
func (s *chainState) foldTo(keep []int, maxAcc int, into *stateSlot) (*chainState, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	// State-dim indexes of the kept positions (dim 0 is the acc).
	keepIdx := sc.keepIdx[:0]
	for _, q := range keep {
		found := false
		for j, p := range s.open {
			if p == q {
				keepIdx = append(keepIdx, 1+j)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: keep position %d not open (open: %v)", q, s.open)
		}
	}
	sc.keepIdx = keepIdx
	folds, nKept, err := foldCellsInto(sc, s.m, keepIdx)
	if err != nil {
		return nil, err
	}
	m, err := assembleState(sc, s.m, folds, nKept, keepIdx, maxAcc, into.axisBuf())
	if err != nil {
		return nil, err
	}
	return into.hold(m, keep), nil
}

// convolveFold is multiply + foldTo(nil, maxAcc) for a state with no
// open dimension, in one pass with no product state: the folds come
// straight from the (accumulator cell, factor cell) pairs in product key
// order, through the two-pass route's float operations in its order, so
// state, CellsTouched and errors are byte-identical (docs/ARCHITECTURE.md,
// "What one chain step costs"). The state is new or, when into is
// non-nil, built into that slot.
func (s *chainState) convolveFold(fm *hist.Multi, st *EvalStats, maxAcc int, into *stateSlot) (*chainState, error) {
	if err := checkStateDims(fm); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)

	sKeys, sProbs := s.m.Cells()
	fKeys, fProbs := fm.Cells()
	if st != nil {
		st.CellsTouched += len(sKeys) * len(fKeys)
	}
	// Each factor cell's (lo, hi) per dimension, read once, not per state cell.
	dims := fm.Dims()
	edges := sc.fEdges[:0]
	for _, k := range fKeys {
		for d := 0; d < dims; d++ {
			lo, hi := fm.BucketRange(d, int(k.Dim(d)))
			edges = append(edges, lo, hi)
		}
	}
	sc.fEdges = edges

	acc := s.m.Bounds(0)
	folds := sc.folds[:0]
	var total float64
	for i, sk := range sKeys {
		spr := sProbs[i]
		a := int(sk.Dim(0))
		var accLo, accHi float64 // foldCellsInto's 0 + accumulator bound
		accLo += acc[a]
		accHi += acc[a+1]
		for c, fp := range fProbs {
			// multiply's spr·fp/1, rounded before total += v as its stored
			// cell is (no fused multiply-add); exact zeros are dropped.
			v := float64(spr * fp)
			if v == 0 {
				continue
			}
			lo, hi := accLo, accHi
			ce := edges[2*dims*c : 2*dims*(c+1)]
			for d := 0; d < len(ce); d += 2 {
				lo += ce[d]
				hi += ce[d+1]
			}
			total += v
			folds = append(folds, cellFold{lo: lo, hi: hi, pr: v})
		}
	}
	sc.folds = folds
	if total <= 0 { // the product's Normalize: same total, same error
		return nil, fmt.Errorf("hist: cannot normalize empty multi-histogram")
	}
	for i := range folds {
		folds[i].pr /= total
	}
	m, err := assembleState(sc, nil, folds, 0, nil, maxAcc, into.axisBuf())
	if err != nil {
		return nil, err
	}
	return into.hold(m, nil), nil
}

// stateSlot is the one owner of a folded chain state built into it:
// the state, and the accumulator axis and open positions of the last
// state held here, whose storage the next one reuses. Taking the slot
// for the next state (slotAt) releases the one it held, so a state
// lives until its slot is taken again or released.
type stateSlot struct {
	cs   chainState
	axis []float64
	open []int
}

// axisBuf is the storage for the next accumulator axis built into the
// slot; nil for a nil slot, whose state gets a new axis.
func (sl *stateSlot) axisBuf() []float64 {
	if sl == nil {
		return nil
	}
	return sl.axis
}

// slotAt is own[i % len(own)], its state released, or nil when own is.
func slotAt(own []stateSlot, i int) *stateSlot {
	if own == nil {
		return nil
	}
	sl := &own[i%len(own)]
	sl.release()
	return sl
}

// keep is overlapWithNext(de, i), in the slot's open-position storage
// unless the slot is nil.
func (sl *stateSlot) keep(de *Decomposition, i int) []int {
	if sl == nil {
		return overlapWithNext(de, i, nil)
	}
	sl.open = overlapWithNext(de, i, sl.open)
	return sl.open
}

// hold makes the folded state (m, open) the slot's and returns it; a
// nil slot returns a new state. m's accumulator axis — always a fresh
// one, or the slot's own storage — becomes the slot's axis storage.
func (sl *stateSlot) hold(m *hist.Multi, open []int) *chainState {
	if sl == nil {
		return &chainState{m: m, open: open}
	}
	sl.axis = m.Bounds(0)
	sl.cs = chainState{m: m, open: open}
	return &sl.cs
}

// release recycles the slot's state, if it holds one: its Multi goes
// back to the pool; its axis and open positions stay as storage (in a
// test binary they are scrambled first, see hist.PutMulti).
func (sl *stateSlot) release() {
	if sl.cs.m == nil {
		return
	}
	hist.PutMulti(sl.cs.m)
	if poisonReleased {
		for i := range sl.axis {
			sl.axis[i] = math.NaN()
		}
		for i := range sl.open {
			sl.open[i] = -1
		}
	}
	sl.cs = chainState{}
}

// poisonReleased is hist's release poisoning for the storage core
// recycles itself: on in test binaries only.
var poisonReleased = testing.Testing()

// chainRing is the storage of a chain whose intermediate states
// nobody reads: a step reads only the state before it, so the chain's
// states alternate between two slots. A ring from ringPool belongs to
// one chain, then to the handle holding its final state, if any, until
// release pools it back.
type chainRing [2]stateSlot

var ringPool = sync.Pool{New: func() any { return new(chainRing) }}

// release recycles the ring's states and pools it.
func (r *chainRing) release() {
	r[0].release()
	r[1].release()
	ringPool.Put(r)
}

// indexOf maps query positions to dim indexes within a factor,
// appended to buf[:0].
func indexOf(positions, subset, buf []int) []int {
	out := buf[:0]
	for _, q := range subset {
		for j, p := range positions {
			if p == q {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// cellFold is one folded cell: the accumulated-cost interval, the
// kept-dim indexes (in keep order) and the probability.
type cellFold struct {
	lo, hi float64
	idx    []int
	pr     float64
}

// foldCellsInto folds a Multi's non-kept dims into accumulated-cost
// intervals (an existing accumulator dim, when present, is simply not
// listed in keepIdx and its bucket bounds join the interval sums).
// The columnar scan runs in storage order — sorted cell-key order —
// which keeps the fold order, and therefore the float accumulation
// downstream in accCuts/distributeFolds, reproducible. The folds slice
// and the shared index arena are the scratch's, so a warm fold
// allocates nothing.
func foldCellsInto(sc *evalScratch, m *hist.Multi, keepIdx []int) ([]cellFold, int, error) {
	keys, probs := m.Cells()
	if len(keys) == 0 {
		return nil, 0, fmt.Errorf("core: folding an empty joint")
	}
	var keep [hist.MaxDims]bool
	for _, d := range keepIdx {
		keep[d] = true
	}
	need := len(keys) * len(keepIdx)
	if cap(sc.folds) < len(keys) {
		sc.folds = make([]cellFold, 0, len(keys))
	}
	if cap(sc.foldIdx) < need {
		sc.foldIdx = make([]int, 0, need)
	}
	folds, arena := sc.folds[:0], sc.foldIdx[:0]
	// arena has full capacity up front so the idx sub-slices below
	// never dangle on growth.
	dims := m.Dims()
	for i, k := range keys {
		var lo, hi float64
		for d := 0; d < dims; d++ {
			if keep[d] {
				continue
			}
			l, u := m.BucketRange(d, int(k.Dim(d)))
			lo += l
			hi += u
		}
		base := len(arena)
		for _, d := range keepIdx {
			arena = append(arena, int(k.Dim(d)))
		}
		folds = append(folds, cellFold{lo: lo, hi: hi, idx: arena[base:len(arena):len(arena)], pr: probs[i]})
	}
	sc.folds, sc.foldIdx = folds, arena
	return folds, len(keepIdx), nil
}

// assembleState builds the state Multi (dim 0 = acc, then kept dims of
// src in keepIdx order) from folded cells, re-bucketing the acc axis
// to at most maxAcc buckets; the axis reuses cutsBuf's storage when it
// has room.
func assembleState(sc *evalScratch, src *hist.Multi, folds []cellFold, nKept int, keepIdx []int, maxAcc int, cutsBuf []float64) (*hist.Multi, error) {
	cuts, err := accCuts(sc, folds, maxAcc, cutsBuf)
	if err != nil {
		return nil, err
	}
	bounds := sc.boundsScratch(1 + nKept)
	bounds[0] = cuts
	for i, d := range keepIdx {
		bounds[1+i] = src.Bounds(d)
	}
	keys, probs := distributeFoldsInto(sc, folds, nKept, cuts)
	out, err := hist.NewMultiFromPackedCells(bounds, keys, probs)
	if err != nil {
		return nil, err
	}
	if err := out.Normalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// accCuts derives the accumulated-cost bucket boundaries: the exact
// interval endpoints when few, otherwise the boundaries of the
// compressed exact marginal. hist.RearrangedCuts keeps the whole
// rearrangement pooled; only the returned boundary slice — which
// becomes the state's accumulator axis — is allocated, unless cutsBuf
// has room for it.
func accCuts(sc *evalScratch, folds []cellFold, maxAcc int, cutsBuf []float64) ([]float64, error) {
	if cap(sc.ivals) < len(folds) {
		sc.ivals = make([]hist.Bucket, 0, len(folds))
	}
	ivals := sc.ivals[:len(folds)]
	sc.ivals = ivals
	for i, f := range folds {
		hi := f.hi
		if !(hi > f.lo) {
			hi = f.lo + 1e-9 // degenerate (point) accumulations
		}
		ivals[i] = hist.Bucket{Lo: f.lo, Hi: hi, Pr: f.pr}
	}
	return hist.RearrangedCuts(cutsBuf, ivals, maxAcc)
}

// distributeFoldsInto spreads each folded cell's mass across the acc
// slabs proportionally to overlap (uniform-within-interval, the
// Section 4.2 rule) and returns the resulting sorted cell arrays,
// owned by the scratch.
//
// Accumulation happens immediately per emission — the same order as
// the reference walk, distributeFoldsRef in the tests, so the per-cell
// float sums are identical — but never into a Multi. A fold that keeps no dimension
// (nKept == 0: a plain 1-D convolution, nearly every fold of a chain)
// has the slab index as its whole key, so it accrues into a
// slab-indexed table and the cells are read off it in order. A fold
// that keeps dimensions accrues into flat packed-key/probability
// arrays: within one fold the emitted keys strictly ascend (only the
// slab index varies), so the tail fast paths absorb most emissions and
// an out-of-order one costs a binary search over word compares.
func distributeFoldsInto(sc *evalScratch, folds []cellFold, nKept int, cuts []float64) ([]hist.PackedKey, []float64) {
	keys := sc.keys[:0]
	probs := sc.probs[:0]
	var slabs []float64
	var slabHit []bool
	if nKept == 0 {
		n := len(cuts) - 1
		if cap(sc.slabs) < n {
			sc.slabs, sc.slabHit = make([]float64, n), make([]bool, n)
		}
		slabs, slabHit = sc.slabs[:n], sc.slabHit[:n]
		clear(slabs)
		clear(slabHit)
	}
	// r is sort.SearchFloat64s(cuts, lo), walked to from the previous
	// fold's r: the walk tests the search's own predicate, monotone over
	// ascending cuts, so any start gives its index (NaN's too).
	r := 0
	for _, f := range folds {
		lo, hi := f.lo, f.hi
		if !(hi > lo) {
			hi = lo + 1e-9
		}
		w := hi - lo
		// Kept-dim indexes are fixed per fold; only dim 0 varies.
		var base hist.PackedKey
		for j, v := range f.idx {
			base = base.WithDim(1+j, uint16(v))
		}
		for r > 0 && cuts[r-1] >= lo {
			r--
		}
		for r < len(cuts) && !(cuts[r] >= lo) {
			r++
		}
		s := r
		if s > 0 {
			s--
		}
		for ; s+1 < len(cuts); s++ {
			if cuts[s] >= hi {
				break
			}
			// min(cuts[s+1], hi) − max(cuts[s], lo): no NaNs reach here,
			// so plain comparisons give math.Min/Max's values.
			top, bot := cuts[s+1], cuts[s]
			if hi < top {
				top = hi
			}
			if lo > bot {
				bot = lo
			}
			ol := top - bot
			if ol <= 0 {
				continue
			}
			add := f.pr * ol / w
			if add == 0 {
				// Matches the map kernel: Cell+SetCell with a zero delta
				// never materialized an absent cell.
				continue
			}
			if slabs != nil {
				slabs[s] += add // the first sum is 0 + add = add exactly
				slabHit[s] = true
				continue
			}
			key := base.WithDim(0, uint16(s))
			n := len(keys)
			switch {
			case n == 0 || keys[n-1].Less(key):
				keys = append(keys, key)
				probs = append(probs, add)
			case keys[n-1] == key:
				probs[n-1] += add
			default:
				// Out-of-order emission: binary search, accrue or insert.
				i := sort.Search(n, func(i int) bool { return !keys[i].Less(key) })
				if keys[i] == key {
					probs[i] += add
				} else {
					keys = append(keys, hist.PackedKey{})
					probs = append(probs, 0)
					copy(keys[i+1:], keys[i:])
					copy(probs[i+1:], probs[i:])
					keys[i] = key
					probs[i] = add
				}
			}
		}
	}
	for s, hit := range slabHit {
		if hit {
			keys = append(keys, hist.PackedKey{}.WithDim(0, uint16(s)))
			probs = append(probs, slabs[s])
		}
	}
	sc.keys, sc.probs = keys, probs
	return keys, probs
}
