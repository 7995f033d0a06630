package core

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hist"
)

// stateV1Version heads the retired text relay format.
const stateV1Version = "pstate-v1"

// EncodeStateV1 writes the text pstate-v1 dump an earlier release put
// on the wire. DecodeChainState no longer reads that format, so the
// writer exists for tests alone: they need real v1 input to assert the
// rejection with.
func EncodeStateV1(s *ChainState) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\ns %d", stateV1Version, len(s.cs.open))
	for _, q := range s.cs.open {
		fmt.Fprintf(&buf, " %d", q)
	}
	buf.WriteByte('\n')
	if err := writeJoint(&buf, s.cs.m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// extendRefolding is ExtendPath(prev, e) in the order recompute
// used before the siblings of a DFS node shared their parent's fold:
// the resume state is folded again from prev's last product even when
// prev already holds that very fold. The shared fold is hidden behind a
// copy of prev whose last intermediate state claims a fold target no
// decomposition asks for, so recompute's own refold branch runs — the
// old order, reachable from tests alone.
func extendRefolding(h *HybridGraph, prev *PathState, e graph.EdgeID) (*PathState, error) {
	hidden := &PathState{h: prev.h, path: prev.path, t: prev.t, opt: prev.opt, de: prev.de, next: prev.next}
	hidden.inter = append([]*chainState(nil), prev.inter...)
	last := len(hidden.inter) - 1
	hidden.inter[last] = &chainState{m: prev.inter[last].m, open: []int{-1}}
	ns := &PathState{h: h, path: append(prev.path.Clone(), e), t: prev.t, opt: prev.opt}
	if err := ns.recompute(hidden, math.Inf(1), nil); err != nil {
		return nil, err
	}
	return ns, nil
}

// keptState is a PathState together with its last factor's product, as
// every state held it before lastProduct rebuilt that product on
// demand.
type keptState struct {
	*PathState
	preFold *chainState
}

// extendKept evaluates path p — prev's path plus one edge, or a single
// edge when prev is nil — the way recompute did while states kept their
// last product: the candidate array built in full for every path, every
// factor but the last fused when it leaves nothing open, the last one
// multiplied and folded in two passes with its product kept, and a
// child that conditions on a suffix edge of prev's last factor folding
// prev's kept product. It reports errSettled where recompute does. The
// old branch, reachable from tests alone.
func extendKept(h *HybridGraph, prev *keptState, p graph.Path, t float64, opt QueryOptions, within float64) (*keptState, error) {
	s := &keptState{PathState: &PathState{h: h, path: p, t: t, opt: opt}}
	ca, next, err := h.buildCandidateArrayFrom(p, TimeInterval{Lo: t, Hi: t})
	if err != nil {
		return nil, err
	}
	defer ca.Release()
	switch opt.Method {
	case MethodOD:
		s.de = ca.CoarsestDecomposition(opt.RankCap)
	case MethodHP:
		s.de = ca.PairDecomposition()
	case MethodLB:
		s.de = ca.UnitDecomposition()
	}
	s.next = next

	shared := 0
	if prev != nil {
		for shared < min(len(prev.de.Vars), len(s.de.Vars)) &&
			prev.de.Vars[shared] == s.de.Vars[shared] && prev.de.Pos[shared] == s.de.Pos[shared] {
			shared++
		}
	}
	var state *chainState
	from := 0
	if shared > 0 {
		i := shared - 1
		keep := overlapWithNext(s.de, i, nil)
		switch {
		case sameInts(keep, prev.inter[i].open):
			state = prev.inter[i]
		case i == len(prev.de.Vars)-1:
			if state, err = prev.preFold.foldTo(keep, h.Params.MaxAccBuckets, nil); err != nil {
				return nil, err
			}
		}
		if state != nil {
			from = shared
		}
	}
	s.inter = make([]*chainState, len(s.de.Vars))
	if from > 0 {
		copy(s.inter, prev.inter[:from-1])
		s.inter[from-1] = state
	}
	var st EvalStats
	for i := from; i < len(s.de.Vars); i++ {
		fm, err := asMulti(s.de.Vars[i])
		if err != nil {
			return nil, err
		}
		last := i == len(s.de.Vars)-1
		if !math.IsInf(within, 1) && i == from && last && state != nil && len(state.open) == 0 {
			if err := checkStateDims(fm); err != nil {
				return nil, err
			}
			if within <= state.supportMin(fm) {
				return nil, errSettled
			}
		}
		keep := overlapWithNext(s.de, i, nil)
		if state != nil && !last && len(state.open) == 0 && len(keep) == 0 {
			if state, err = state.convolveFold(fm, &st, h.Params.MaxAccBuckets, nil); err != nil {
				return nil, err
			}
			s.inter[i] = state
			continue
		}
		positions := factorPositions(s.de, i)
		var prod chainState
		if state == nil {
			prod, err = initialState(fm, positions)
		} else {
			prod, err = state.multiply(fm, positions, &st)
		}
		if err != nil {
			return nil, err
		}
		if last {
			s.preFold = &prod
		}
		if state, err = prod.foldTo(keep, h.Params.MaxAccBuckets, nil); err != nil {
			return nil, err
		}
		s.inter[i] = state
	}
	return s, nil
}

// factorPositions returns the query positions covered by factor i, in
// a slice of its own (the evaluators take them from their scratch).
func factorPositions(de *Decomposition, i int) []int {
	positions := make([]int, de.Vars[i].Rank())
	for j := range positions {
		positions[j] = de.Pos[i] + j
	}
	return positions
}

// Evaluate computes the estimated cost distribution of the query path
// from a decomposition, per Equation 2 followed by the Section 4.2
// marginalization: factors are applied left to right; before each new
// factor the state keeps open exactly the overlap edges (conditioning
// set), everything else being folded into the accumulated-cost
// dimension.
func (h *HybridGraph) Evaluate(de *Decomposition, query graph.Path) (*hist.Histogram, EvalStats, error) {
	return h.evaluateMode(nil, de, query)
}

// Dist returns the cost distribution of the state's path, deriving it
// on first call (nil in the never-expected case that marginalization
// fails; DistErr surfaces the error).
func (s *PathState) Dist() *hist.Histogram {
	d, _ := s.DistErr()
	return d
}

// Path returns the state's path (callers must not modify it).
func (s *PathState) Path() graph.Path { return s.path }

// Open returns the query positions of the state's open dimensions.
func (s *ChainState) Open() []int {
	return append([]int(nil), s.cs.open...)
}

// ScratchSegment is the reference for EvaluateSegment: every segment
// evaluated the way it was before segments ran on recycled chains. A
// first segment runs the memo-free path-state evaluation — one
// StartPath/ExtendPath per edge — and a continuation runs its chain
// with no ring from the relayed state. It recycles nothing, and its
// states are never released.
func ScratchSegment(h *HybridGraph, in SegmentInput) (*SegmentResult, error) {
	opt := in.Opt
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	if in.State == nil {
		st, err := h.pathState(nil, nil, in.Path, in.Depart, opt)
		if err != nil {
			return nil, err
		}
		return &SegmentResult{
			State:   &ChainState{cs: st.inter[len(st.inter)-1]},
			UI:      st.next,
			Factors: len(st.de.Vars),
			MaxRank: st.de.MaxRank(),
		}, nil
	}
	de, ui, err := h.decomposeFrom(in.Path, in.UI, opt, nil)
	if err != nil {
		return nil, err
	}
	state, err := h.runChain(nil, de, 0, in.State.cs, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &SegmentResult{State: &ChainState{cs: state}, UI: ui, Factors: len(de.Vars), MaxRank: de.MaxRank()}, nil
}
