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
	// overlap with factor i+1; preFold is the state after the last
	// factor's multiplication, before any folding (all its dims open),
	// so a future factor can still condition on any suffix edge.
	inter   []*chainState
	preFold *chainState

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

// StartPath begins incremental evaluation with a single-edge path,
// through the reuse handle r: a tier that already holds the state
// answers it, otherwise it is computed and offered. A nil r always
// computes.
func (h *HybridGraph) StartPath(r *Reuse, e graph.EdgeID, t float64, opt QueryOptions) (*PathState, error) {
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	s, _, err := r.through(graph.Path{e}, t, opt, func() (*PathState, error) {
		s := &PathState{h: h, path: graph.Path{e}, t: t, opt: opt}
		if err := s.recompute(nil, math.Inf(1)); err != nil {
			return nil, err
		}
		return s, nil
	})
	return s, err
}

// ExtendPath returns the state for s's path extended by edge e,
// through the reuse handle r: a stored state costs one lookup instead
// of a convolution step, and a computed one reuses as much of s's
// chain evaluation as the new coarsest decomposition allows. The
// receiver remains valid (DFS keeps parent states alive across
// siblings).
func (h *HybridGraph) ExtendPath(r *Reuse, s *PathState, e graph.EdgeID) (*PathState, error) {
	ns, _, err := h.ExtendPathWithin(r, s, e, math.Inf(1))
	return ns, err
}

// errSettled is recompute's answer when the child's cost support lies
// wholly at or above the asked budget; it never leaves the package.
var errSettled = errors.New("core: extension settled by its cost-support minimum")

// ExtendPathWithin is ExtendPath for a caller that needs the child
// only if it can cost less than within (a budget search's remaining
// budget). When the child is not already stored and its cost-support
// minimum — read off the parent's folded state and the one new factor,
// before any kernel work — is at or above within, it reports settled
// with a nil state: the child's distribution d would have d.Min() ≥
// within, so d.CDF(x) is exactly 0 for every x ≤ within. Every check
// ExtendPath makes before the kernel still runs, a stored state is
// still returned first, and a settled child is not offered to r. Any
// child the minimum cannot be read for that cheaply (a cold start, an
// overlapping resume, more than one new factor) is computed exactly;
// within = +Inf never settles. The extended path is built once.
func (h *HybridGraph) ExtendPathWithin(r *Reuse, s *PathState, e graph.EdgeID, within float64) (ns *PathState, settled bool, err error) {
	np := make(graph.Path, len(s.path)+1)
	copy(np, s.path)
	np[len(s.path)] = e
	ns, _, err = r.through(np, s.t, s.opt, func() (*PathState, error) {
		if !h.G.ValidPath(np) {
			return nil, fmt.Errorf("core: extension %v is not a valid path", np)
		}
		ns := &PathState{h: h, path: np, t: s.t, opt: s.opt}
		if err := ns.recompute(s, within); err != nil {
			return nil, err
		}
		return ns, nil
	})
	if err == errSettled {
		return nil, true, nil
	}
	return ns, false, err
}

// pathState evaluates path p departing at t, resuming from the deepest
// prefix state r holds (see Reuse.longestPrefix for what one query
// counts) and offering every state derived past that base, so later
// queries — longer paths, sibling branches, other batch entries —
// resume deeper still. The deadline is checked before each edge
// derivation, so evaluation stops within one extend of the budget
// expiring. ctx stays a parameter — PathStates land in the memo and
// synopsis and outlive the request, so a stored context would poison
// every later query resuming from them. nil ctx means unbounded.
func (h *HybridGraph) pathState(ctx context.Context, r *Reuse, p graph.Path, t float64, opt QueryOptions) (*PathState, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty path")
	}
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	var st *PathState
	base := 0
	reuse := r.active(opt.Method)
	if reuse {
		st, base = r.longestPrefix(p, t, opt)
	}
	for i := base; i < len(p); i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var err error
		if st == nil {
			st, err = h.StartPath(nil, p[0], t, opt)
		} else {
			st, err = h.ExtendPath(nil, st, p[i])
		}
		if err != nil {
			return nil, err
		}
		if reuse {
			r.offer(r.slot(p[:i+1], t, opt), st)
		}
	}
	return st, nil
}

// stateResult converts a fully evaluated chain state into a
// QueryResult, mirroring Evaluate's single-factor shortcut. It is the
// one result-assembly path shared by CostDistributionCtx and the batch
// planner, which is what makes planned and independent answers
// byte-identical by construction. Timing is left zero for the caller
// to fill.
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
	ca, err := h.BuildCandidateArray(s.path, s.t)
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

	// Longest shared factor prefix with prev.
	shared := 0
	if prev != nil && prev.de != nil {
		max := len(prev.de.Vars)
		if len(s.de.Vars) < max {
			max = len(s.de.Vars)
		}
		for shared < max &&
			prev.de.Vars[shared] == s.de.Vars[shared] &&
			prev.de.Pos[shared] == s.de.Pos[shared] {
			shared++
		}
	}

	var st EvalStats
	var state *chainState
	from := 0
	if shared > 0 && prev != nil {
		// Resume right after the last shared factor, folded to its overlap
		// with the *new* next factor. When prev already folded it to that
		// target, prev's state is the same pure function of the same
		// arguments: share it (every sibling of a DFS node resumes from
		// one fold). Only prev's last factor can be refolded to a
		// different target, from its kept pre-fold state.
		i := shared - 1
		keep := overlapWithNext(s.de, i)
		switch {
		case i < len(prev.inter) && sameInts(keep, prev.inter[i].open):
			state, err = prev.inter[i], nil
		case i == len(prev.de.Vars)-1 && prev.preFold != nil:
			state, err = prev.preFold.foldTo(keep, h.Params.MaxAccBuckets)
		default:
			state, err = nil, nil
			shared = 0
		}
		if err != nil {
			return err
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
		last := i == len(s.de.Vars)-1
		keep := overlapWithNext(s.de, i)
		if state != nil && !last && len(state.open) == 0 && len(keep) == 0 {
			// Fused: only the last factor keeps its product, as preFold.
			if state, err = state.convolveFold(fm, &st, h.Params.MaxAccBuckets, nil); err != nil {
				return err
			}
			s.inter[i] = state
			continue
		}
		positions := factorPositions(s.de, i)
		if state == nil {
			state, err = initialState(fm, positions)
		} else {
			state, err = state.multiply(fm, positions, &st)
		}
		if err != nil {
			return err
		}
		if last {
			s.preFold = state
		}
		state, err = state.foldTo(keep, h.Params.MaxAccBuckets)
		if err != nil {
			return err
		}
		s.inter[i] = state
	}
	if from == len(s.de.Vars) && prev != nil {
		// The whole decomposition was shared (possible when the new
		// edge extends the last factor's path without changing the
		// decomposition — cannot happen by construction, but guard).
		s.preFold = prev.preFold
	}
	// The cost marginal of s.inter[last] is derived lazily in DistErr.
	return nil
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
