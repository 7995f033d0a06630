package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/hist"
)

// PathState supports the "path + another edge" exploration pattern of
// stochastic routing algorithms (Section 4.3): extending a path by one
// edge reuses the chain evaluation of the existing path instead of
// recomputing it, which is the paper's "incremental property".
//
// A PathState built without a slot is immutable after construction
// and safe to share between goroutines (the convolution memo hands one
// state to many concurrent queries); the lazily derived marginal is
// guarded by a sync.Once and is a deterministic function of the state.
//
// A PathState built into a PathSlot is search-owned instead: it lives
// until the next state is built into the same slot (or the slot is
// released), which recycles it and every chain state it computed
// itself. Until then it is as immutable as any other; it must not be
// stored, handed to another goroutine or outlive its search. What it
// shares with its parent (a resumed fold, the parent's folded states)
// belongs to the parent and is never recycled through the child.
type PathState struct {
	h    *HybridGraph
	path graph.Path
	t    float64
	opt  QueryOptions

	de *Decomposition
	// inter[i] is the chain state after factor i was folded to its
	// overlap with factor i+1. The last factor's product, which a child
	// conditioning on a suffix edge folds again, is not kept: lastProduct
	// rebuilds it for the few children that read it.
	inter []*chainState
	// next is the departure interval past the last edge (Eq. 3's UI
	// chain), the one row interval a child's new row reads.
	next TimeInterval

	// dist is the flattened cost marginal of the final chain state,
	// derived on first use: a memoized intermediate prefix that is
	// only ever extended never pays for a marginal nobody reads, and a
	// search reads its pruning bound through CDF, so only a path it
	// keeps gets one.
	distOnce sync.Once
	dist     *hist.Histogram
	distErr  error
}

// DistErr returns the cost distribution of the state's path,
// flattening the final chain state on first call. The histogram is the
// caller's to keep, even for a state in a slot.
func (s *PathState) DistErr() (*hist.Histogram, error) {
	s.distOnce.Do(func() {
		s.dist, s.distErr = s.inter[len(s.inter)-1].m.SumHistogram(s.h.Params.MaxResultBuckets)
	})
	return s.dist, s.distErr
}

// CDF returns DistErr's CDF at x, bit for bit, and DistErr's error,
// flattening the final chain state in pooled scratch: a search bounds
// every prefix with it and builds a histogram only for a path it keeps.
func (s *PathState) CDF(x float64) (float64, error) {
	return s.inter[len(s.inter)-1].m.SumCDF(s.h.Params.MaxResultBuckets, x)
}

// PathSlot is caller-owned storage for one search-owned PathState (see
// PathState): a DFS keeps one slot per depth and builds each child
// into its depth's slot, so a sibling reuses the path, decomposition,
// chain-state list and the chain states, with their Multis and
// accumulator axes, of the child before it. Factor i's folded state,
// when the slot's state computed it, lives in own[i], runChain's state
// slot for that factor. The zero value is ready to use; a slot is not
// safe for concurrent use.
type PathSlot struct {
	st    PathState
	path  graph.Path
	de    Decomposition
	inter []*chainState
	own   []stateSlot
}

// Release recycles the slot's state and every chain state it computed
// itself; the slot keeps its storage for the next state. A state built
// into the slot, and every state extended from it, is dead afterwards.
func (sl *PathSlot) Release() {
	for i := range sl.own {
		sl.own[i].release()
	}
	clear(sl.inter)
	sl.st = PathState{}
}

// newState returns the empty state for path prefix+e departing at t:
// built into slot, released first, or a new one for a nil slot.
func (h *HybridGraph) newState(slot *PathSlot, prefix graph.Path, e graph.EdgeID, t float64, opt QueryOptions) *PathState {
	if slot == nil {
		np := make(graph.Path, len(prefix)+1)
		copy(np, prefix)
		np[len(prefix)] = e
		return &PathState{h: h, path: np, t: t, opt: opt}
	}
	slot.Release()
	slot.path = append(append(slot.path[:0], prefix...), e)
	slot.st = PathState{h: h, path: slot.path, t: t, opt: opt}
	return &slot.st
}

// StartPath begins incremental evaluation with a single-edge path, in
// slot when it is non-nil (see PathSlot).
func (h *HybridGraph) StartPath(e graph.EdgeID, t float64, opt QueryOptions, slot *PathSlot) (*PathState, error) {
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	s := h.newState(slot, nil, e, t, opt)
	if err := s.recompute(nil, math.Inf(1), slot); err != nil {
		return nil, err
	}
	return s, nil
}

// ExtendPath returns the state for s's path extended by edge e,
// reusing as much of s's chain evaluation as the new coarsest
// decomposition allows. The receiver remains valid (DFS keeps parent
// states alive across siblings).
func (h *HybridGraph) ExtendPath(s *PathState, e graph.EdgeID) (*PathState, error) {
	ns, _, err := h.ExtendPathWithin(s, e, math.Inf(1), nil)
	return ns, err
}

// errSettled is recompute's answer when the child's cost support lies
// wholly at or above the asked budget; it never leaves the package.
var errSettled = errors.New("core: extension settled by its cost-support minimum")

// ExtendPathWithin is ExtendPath for a caller that needs the child
// only if it can cost less than within (a budget search's remaining
// budget). When the child's cost-support minimum — read off the
// parent's folded state and the one new factor, before any kernel
// work — is at or above within, it reports settled with a nil state:
// the child's distribution d would have d.Min() ≥ within, so d.CDF(x)
// is exactly 0 for every x ≤ within. Every check ExtendPath makes
// before the kernel still runs. Any child the minimum cannot be read
// for that cheaply (a cold start, an overlapping resume, more than one
// new factor) is computed exactly; within = +Inf never settles. A
// non-nil slot gets the child (see PathSlot); it must not hold s or a
// state s was extended from.
func (h *HybridGraph) ExtendPathWithin(s *PathState, e graph.EdgeID, within float64, slot *PathSlot) (ns *PathState, settled bool, err error) {
	ns = h.newState(slot, s.path, e, s.t, s.opt)
	if !h.G.ValidPath(ns.path) {
		return nil, false, fmt.Errorf("core: extension %v is not a valid path", ns.path)
	}
	switch err := ns.recompute(s, within, slot); err {
	case nil:
		return ns, false, nil
	case errSettled:
		return nil, true, nil
	default:
		return nil, false, err
	}
}

// pathState evaluates path p departing at t, resuming from the deepest
// prefix state the memo view m holds (see ConvMemo.longestPrefix for
// what one query counts) and offering every state derived past that
// base, so later queries — longer paths, other batch entries — resume
// deeper still. It is the memo's one reader; nil m means no reuse. The
// deadline is checked before each edge derivation, so evaluation stops
// within one extend of the budget expiring. ctx stays a parameter —
// PathStates land in the memo and outlive the request, so a stored
// context would poison every later query resuming from them. nil ctx
// means unbounded.
func (h *HybridGraph) pathState(ctx context.Context, m *ConvMemo, p graph.Path, t float64, opt QueryOptions) (*PathState, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty path")
	}
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	var st *PathState
	base := 0
	reuse := m.active(opt.Method)
	if reuse {
		st, base = m.longestPrefix(p, t, opt)
	}
	for i := base; i < len(p); i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var err error
		if st == nil {
			st, err = h.StartPath(p[0], t, opt, nil)
		} else {
			st, err = h.ExtendPath(st, p[i])
		}
		if err != nil {
			return nil, err
		}
		if reuse {
			m.offer(p[:i+1], t, opt, st)
		}
	}
	return st, nil
}

// stateResult converts a fully evaluated chain state into a
// QueryResult for CostDistributionCtx, with evaluateMode's single-factor
// answer. Timing is left zero for the caller to fill.
func (h *HybridGraph) stateResult(st *PathState) (*QueryResult, error) {
	de := st.de
	var dist *hist.Histogram
	var err error
	if len(de.Vars) == 1 {
		dist, err = h.singleFactorDist(de.Vars[0])
	} else {
		dist, err = st.DistErr()
	}
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Dist:   dist,
		Decomp: de,
		Stats:  EvalStats{Factors: len(de.Vars), ResultBuckets: dist.NumBuckets()},
	}, nil
}

// recompute evaluates the state's path, reusing prev's chain prefix
// when the decompositions share one. It returns errSettled, before any
// kernel work, when the state's cost support provably starts at or
// above within (see supportMin for when that can be read cheaply).
// With a non-nil slot — the one s is built in, released — the chain
// states s computes itself, its decomposition and its chain-state list
// are built into the slot's storage.
func (s *PathState) recompute(prev *PathState, within float64, slot *PathSlot) error {
	if err := s.decompose(prev, slot); err != nil {
		return err
	}

	// Longest shared factor prefix with prev.
	shared := 0
	for prev != nil && shared < min(len(prev.de.Vars), len(s.de.Vars)) &&
		prev.de.Vars[shared] == s.de.Vars[shared] && prev.de.Pos[shared] == s.de.Pos[shared] {
		shared++
	}

	own := slot.states(len(s.de.Vars))
	var state *chainState
	from := 0
	if shared > 0 && prev != nil {
		// Resume right after the last shared factor, folded to its overlap
		// with the *new* next factor. When prev already folded it to that
		// target, prev's state is the same pure function of the same
		// arguments: share it (every sibling of a DFS node resumes from
		// one fold). Only prev's last factor can be refolded to a
		// different target, from its product, rebuilt here; the refold is
		// the child's own.
		i := shared - 1
		into := slotAt(own, i)
		keep := into.keep(s.de, i)
		switch {
		case sameInts(keep, prev.inter[i].open):
			state = prev.inter[i]
		case i == len(prev.de.Vars)-1:
			var err error
			if state, err = prev.refoldLast(keep, into); err != nil {
				return err
			}
		default:
			shared = 0
		}
		if state != nil {
			from = shared
		}
	}

	last := len(s.de.Vars) - 1
	if !math.IsInf(within, 1) && from == last && state != nil && len(state.open) == 0 {
		// A limit, and one new factor on a resume state with no open
		// dimension: the child's support minimum needs no multiply or
		// fold.
		fm, err := asMulti(s.de.Vars[last])
		if err != nil {
			return err
		}
		if err := checkStateDims(fm); err != nil {
			return err
		}
		if within <= state.supportMin(fm) {
			return errSettled
		}
	}

	if slot == nil {
		s.inter = make([]*chainState, len(s.de.Vars))
	} else {
		s.inter = slices.Grow(slot.inter[:0], len(s.de.Vars))[:len(s.de.Vars)]
		slot.inter = s.inter
	}
	if from > 0 {
		copy(s.inter, prev.inter[:from-1])
		s.inter[from-1] = state
	}
	// The cost marginal of s.inter[last] is derived lazily in DistErr,
	// or read in scratch by CDF.
	_, err := s.h.runChain(nil, s.de, from, state, s.inter, nil, own)
	return err
}

// states is where a state of n factors built into the slot builds the
// chain states it computes itself: one state slot per factor, or nil
// for a nil slot. The slot must be released.
func (sl *PathSlot) states(n int) []stateSlot {
	if sl == nil {
		return nil
	}
	if len(sl.own) < n {
		sl.own = append(sl.own, make([]stateSlot, n-len(sl.own))...)
	}
	return sl.own
}

// decompose selects the state's decomposition and the interval past its
// last edge. Extending prev by an edge moves no row's interval (UI
// chaining is a left fold) and adds a row holding the edge's unit; row
// k changes only by gaining the variable whose path is the suffix from
// k. With no such variable every pick of prev's scan stands and the
// unit, ending past them all, is kept: prev's decomposition plus the
// unit at prev's next interval. Otherwise the array is built in full.
// A non-nil slot holds the decomposition.
func (s *PathState) decompose(prev *PathState, slot *PathSlot) error {
	h := s.h
	if prev != nil && !h.suffixVariable(s.path) {
		n := len(prev.path)
		ca := caPool.Get().(*CandidateArray)
		ca.beginRow(h.Params.NumIntervals(), prev.next, h.Params.IntervalSeconds())
		unit := h.bestUnitVariable(s.path[n], prev.next, ca)
		caPool.Put(ca)
		s.de = reuseDecomposition(slot.decomposition(), len(prev.de.Vars)+1)
		s.de.Vars = append(append(s.de.Vars, prev.de.Vars...), unit)
		s.de.Pos = append(append(s.de.Pos, prev.de.Pos...), n)
		s.next = sae(prev.next, unit)
		return nil
	}
	// An invalid path is reported before the method is rejected.
	if !memoizable(s.opt.Method) && h.G.ValidPath(s.path) {
		return fmt.Errorf("core: method %q does not support incremental evaluation", s.opt.Method)
	}
	var err error
	s.de, s.next, err = h.decomposeFrom(s.path, TimeInterval{Lo: s.t, Hi: s.t}, s.opt, slot.decomposition())
	return err
}

// decomposition is the slot's decomposition, whose columns a state
// built into it reuses; nil for a nil slot.
func (sl *PathSlot) decomposition() *Decomposition {
	if sl == nil {
		return nil
	}
	return &sl.de
}

// refoldLast folds s's last factor's product, rebuilt by lastProduct,
// to keep: the one step a child resumes from that s did not take. The
// fold is new or, when into is non-nil, built into that slot.
func (s *PathState) refoldLast(keep []int, into *stateSlot) (*chainState, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	prod, err := s.lastProduct(sc.positions(s.de, len(s.de.Vars)-1))
	if err != nil {
		return nil, err
	}
	state, err := prod.foldTo(keep, s.h.Params.MaxAccBuckets, into)
	hist.PutMulti(prod.m)
	return state, err
}

// lastProduct rebuilds the unfolded product of s's last factor, its
// dims open at positions, for a child that conditions on a suffix edge
// of it: the pure function the last step evaluated, of the same
// arguments, so the product that step formed, byte for byte.
func (s *PathState) lastProduct(positions []int) (chainState, error) {
	last := len(s.de.Vars) - 1
	fm, err := asMulti(s.de.Vars[last])
	if err != nil {
		return chainState{}, err
	}
	if last == 0 {
		return initialState(fm, positions)
	}
	return s.inter[last-1].multiply(fm, positions, nil)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
