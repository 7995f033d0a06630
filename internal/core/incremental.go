package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/hist"
)

// PathState supports the "path + another edge" exploration pattern of
// stochastic routing algorithms (Section 4.3): extending a path by one
// edge reuses the chain evaluation of the existing path instead of
// recomputing it, which is the paper's "incremental property".
//
// A PathState is immutable after construction and safe to share
// between goroutines (the convolution memo hands one state to many
// concurrent queries); the lazily derived marginal is guarded by a
// sync.Once and is a deterministic function of the state.
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
	// only ever extended never pays for a marginal nobody reads.
	distOnce sync.Once
	dist     *hist.Histogram
	distErr  error
}

// Dist returns the cost distribution of the state's path, deriving it
// on first call (nil in the never-expected case that marginalization
// fails; DistErr surfaces the error).
func (s *PathState) Dist() *hist.Histogram {
	d, _ := s.DistErr()
	return d
}

// DistErr returns the cost distribution of the state's path,
// flattening the final chain state on first call.
func (s *PathState) DistErr() (*hist.Histogram, error) {
	s.distOnce.Do(func() {
		s.dist, s.distErr = s.inter[len(s.inter)-1].m.SumHistogram(s.h.Params.MaxResultBuckets)
	})
	return s.dist, s.distErr
}

// Decomp returns the decomposition behind the state's distribution.
func (s *PathState) Decomp() *Decomposition { return s.de }

// Path returns the state's path (callers must not modify it).
func (s *PathState) Path() graph.Path { return s.path }

// Depart returns the departure time the state was built for.
func (s *PathState) Depart() float64 { return s.t }

// StartPath begins incremental evaluation with a single-edge path.
func (h *HybridGraph) StartPath(e graph.EdgeID, t float64, opt QueryOptions) (*PathState, error) {
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	s := &PathState{h: h, path: graph.Path{e}, t: t, opt: opt}
	if err := s.recompute(nil, math.Inf(1)); err != nil {
		return nil, err
	}
	return s, nil
}

// ExtendPath returns the state for s's path extended by edge e,
// reusing as much of s's chain evaluation as the new coarsest
// decomposition allows. The receiver remains valid (DFS keeps parent
// states alive across siblings).
func (h *HybridGraph) ExtendPath(s *PathState, e graph.EdgeID) (*PathState, error) {
	ns, _, err := h.ExtendPathWithin(s, e, math.Inf(1))
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
// new factor) is computed exactly; within = +Inf never settles.
func (h *HybridGraph) ExtendPathWithin(s *PathState, e graph.EdgeID, within float64) (ns *PathState, settled bool, err error) {
	np := make(graph.Path, len(s.path)+1)
	copy(np, s.path)
	np[len(s.path)] = e
	if !h.G.ValidPath(np) {
		return nil, false, fmt.Errorf("core: extension %v is not a valid path", np)
	}
	ns = &PathState{h: h, path: np, t: s.t, opt: s.opt}
	switch err := ns.recompute(s, within); err {
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
			st, err = h.StartPath(p[0], t, opt)
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
// QueryResult for CostDistributionCtx, mirroring Evaluate's
// single-factor shortcut. Timing is left zero for the caller to fill.
func (h *HybridGraph) stateResult(st *PathState) (*QueryResult, error) {
	de := st.de
	res := &QueryResult{
		Decomp: de,
		Stats:  EvalStats{Factors: len(de.Vars)},
	}
	if len(de.Vars) == 1 {
		v := de.Vars[0]
		if v.Hist != nil {
			res.Dist = v.Hist
		} else {
			out, err := v.Joint.SumHistogram(h.Params.MaxResultBuckets)
			if err != nil {
				return nil, err
			}
			res.Dist = out
		}
	} else {
		dist, err := st.DistErr()
		if err != nil {
			return nil, err
		}
		res.Dist = dist
	}
	res.Stats.ResultBuckets = res.Dist.NumBuckets()
	return res, nil
}

// recompute evaluates the state's path, reusing prev's chain prefix
// when the decompositions share one. It returns errSettled, before any
// kernel work, when the state's cost support provably starts at or
// above within (see supportMin for when that can be read cheaply).
func (s *PathState) recompute(prev *PathState, within float64) error {
	h := s.h
	if err := s.decompose(prev); err != nil {
		return err
	}

	// Longest shared factor prefix with prev.
	shared := 0
	for prev != nil && shared < min(len(prev.de.Vars), len(s.de.Vars)) &&
		prev.de.Vars[shared] == s.de.Vars[shared] && prev.de.Pos[shared] == s.de.Pos[shared] {
		shared++
	}

	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	var st EvalStats
	var state *chainState
	from := 0
	if shared > 0 && prev != nil {
		// Resume right after the last shared factor, folded to its overlap
		// with the *new* next factor. When prev already folded it to that
		// target, prev's state is the same pure function of the same
		// arguments: share it (every sibling of a DFS node resumes from
		// one fold). Only prev's last factor can be refolded to a
		// different target, from its product, rebuilt here.
		i := shared - 1
		keep := overlapWithNext(s.de, i)
		switch {
		case sameInts(keep, prev.inter[i].open):
			state = prev.inter[i]
		case i == len(prev.de.Vars)-1:
			prod, err := prev.lastProduct(sc.positions(prev.de, i))
			if err != nil {
				return err
			}
			state, err = prod.foldTo(keep, h.Params.MaxAccBuckets)
			hist.PutMulti(prod.m)
			if err != nil {
				return err
			}
		default:
			shared = 0
		}
		if state != nil {
			from = shared
		}
	}

	s.inter = make([]*chainState, len(s.de.Vars))
	if prev != nil && from > 0 {
		copy(s.inter, prev.inter[:from-1])
		s.inter[from-1] = state
	}
	for i := from; i < len(s.de.Vars); i++ {
		fm, err := asMulti(s.de.Vars[i])
		if err != nil {
			return err
		}
		if !math.IsInf(within, 1) && i == from && i == len(s.de.Vars)-1 && state != nil && len(state.open) == 0 {
			// A limit, and one new factor on a resume state with no open
			// dimension: the child's support minimum needs no multiply or
			// fold.
			if err := checkStateDims(fm); err != nil {
				return err
			}
			if within <= state.supportMin(fm) {
				return errSettled
			}
		}
		keep := overlapWithNext(s.de, i)
		if state != nil && len(state.open) == 0 && len(keep) == 0 {
			if state, err = state.convolveFold(fm, &st, h.Params.MaxAccBuckets, nil); err != nil {
				return err
			}
			s.inter[i] = state
			continue
		}
		// The product dies with the step; its positions and cells are
		// scratch.
		positions := sc.positions(s.de, i)
		var prod *chainState
		if state == nil {
			prod, err = initialState(fm, positions)
		} else {
			prod, err = state.multiply(fm, positions, &st)
		}
		if err != nil {
			return err
		}
		state, err = prod.foldTo(keep, h.Params.MaxAccBuckets)
		hist.PutMulti(prod.m)
		if err != nil {
			return err
		}
		s.inter[i] = state
	}
	// The cost marginal of s.inter[last] is derived lazily in DistErr.
	return nil
}

// decompose selects the state's decomposition and the interval past its
// last edge. Extending prev by an edge moves no row's interval (UI
// chaining is a left fold) and adds a row holding the edge's unit; row
// k changes only by gaining the variable whose path is the suffix from
// k. With no such variable every pick of prev's scan stands and the
// unit, ending past them all, is kept: prev's decomposition plus the
// unit at prev's next interval. Otherwise the array is built in full.
func (s *PathState) decompose(prev *PathState) error {
	h := s.h
	if prev != nil && !h.suffixVariable(s.path) {
		n := len(prev.path)
		ca := caPool.Get().(*CandidateArray)
		ca.beginRow(h.Params.NumIntervals(), prev.next, h.Params.IntervalSeconds())
		unit := h.bestUnitVariable(s.path[n], prev.next, ca)
		caPool.Put(ca)
		s.de = newDecomposition(len(prev.de.Vars) + 1)
		s.de.Vars = append(append(s.de.Vars, prev.de.Vars...), unit)
		s.de.Pos = append(append(s.de.Pos, prev.de.Pos...), n)
		s.next = sae(prev.next, unit)
		return nil
	}
	ca, next, err := h.buildCandidateArrayFrom(s.path, TimeInterval{Lo: s.t, Hi: s.t})
	if err != nil {
		return err
	}
	defer ca.Release()
	switch s.opt.Method {
	case MethodOD:
		s.de = ca.CoarsestDecomposition(s.opt.RankCap)
	case MethodHP:
		s.de = ca.PairDecomposition()
	case MethodLB:
		s.de = ca.UnitDecomposition()
	default:
		return fmt.Errorf("core: method %q does not support incremental evaluation", s.opt.Method)
	}
	s.next = next
	return nil
}

// lastProduct rebuilds the unfolded product of s's last factor, its
// dims open at positions, for a child that conditions on a suffix edge
// of it: the pure function the last step evaluated, of the same
// arguments, so the product that step formed, byte for byte.
func (s *PathState) lastProduct(positions []int) (*chainState, error) {
	last := len(s.de.Vars) - 1
	fm, err := asMulti(s.de.Vars[last])
	if err != nil {
		return nil, err
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
