package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hist"
)

// Partial-state evaluation: the cross-shard composition primitive.
//
// A region partition of the road network cuts every query path into
// maximal same-region segments. In a model whose variables each lie
// within a single region, no candidate variable spans a cut, so the
// Eq. 2 chain folds to an accumulator-only state at exactly each
// segment boundary. That state — one dimension, no open edges — plus
// the updated departure interval UI (Eq. 3) is everything the next
// segment's evaluation needs: relaying (state, UI) shard to shard and
// applying each shard's local decomposition reproduces the float
// sequence of whole-path evaluation operation for operation, which is
// what makes sharded answers byte-identical to single-process ones.

// ChainState is an exported handle on one chain evaluation state — the
// running joint of Equation 2 — so it can cross a process boundary
// between shards. Relay states are accumulator-only (no open edges);
// Encode/DecodeChainState accept any state shape.
type ChainState struct {
	cs *chainState
}

// AccOnly reports whether the state has folded every edge into the
// accumulated-cost dimension — the only shape a cross-shard relay
// carries.
func (s *ChainState) AccOnly() bool { return len(s.cs.open) == 0 }

// Open returns the query positions of the state's open dimensions.
func (s *ChainState) Open() []int {
	return append([]int(nil), s.cs.open...)
}

// Finalize flattens an accumulator-only state into the final cost
// distribution, exactly as Evaluate does after its last fold. The
// coordinator calls this with the model's MaxResultBuckets once the
// last segment's state returns.
func (s *ChainState) Finalize(maxResultBuckets int) (*hist.Histogram, error) {
	if len(s.cs.open) != 0 {
		return nil, fmt.Errorf("core: finalizing a state with open dims %v", s.cs.open)
	}
	return s.cs.m.SumHistogram(maxResultBuckets)
}

// SegmentInput describes one segment of a decomposed query: the
// segment's edges, the original departure time, the updated departure
// interval at the segment's first edge, and the accumulated state of
// every earlier segment (nil for the first).
type SegmentInput struct {
	Path   graph.Path
	Depart float64
	UI     TimeInterval
	State  *ChainState
	Opt    QueryOptions
	// Ctx, when non-nil, bounds the segment's evaluation: the factor
	// chain and edge derivations check its deadline as they go. It is
	// request-scoped and ephemeral — never serialized with the state,
	// never stored in anything that outlives the call.
	Ctx context.Context
}

// SegmentResult is one segment's contribution: the accumulator-only
// state after the segment's last factor, the updated departure
// interval past the segment's last edge, and the decomposition shape
// (Factors sum and MaxRank max across segments reproduce the
// whole-path decomposition's cardinality and max rank).
type SegmentResult struct {
	State   *ChainState
	UI      TimeInterval
	Factors int
	MaxRank int
}

// EvaluateSegment evaluates one segment of a partitioned query. A
// first segment (nil state) runs the ordinary path evaluation through
// the memo view m and hands out its final folded state; a
// continuation seeds the candidate array with the relayed UI,
// decomposes the segment locally, and multiplies its factors onto the
// relayed state. Continuations never touch m: its keys assume
// evaluation from a point departure interval, which only the first
// segment has.
//
// RD is rejected: its random decomposition draws one value per row of
// the whole query path, so it cannot be reproduced segment by segment
// (single-region RD queries are proxied whole instead).
func (h *HybridGraph) EvaluateSegment(m *ConvMemo, in SegmentInput) (*SegmentResult, error) {
	if len(in.Path) == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty segment")
	}
	if !h.G.ValidPath(in.Path) {
		return nil, fmt.Errorf("core: segment %v is not a valid path", in.Path)
	}
	opt := in.Opt
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	if opt.Method == MethodRD {
		return nil, fmt.Errorf("core: method RD draws one random decomposition over the whole query; it cannot be evaluated segment by segment")
	}
	if in.UI.Hi < in.UI.Lo {
		return nil, fmt.Errorf("core: inverted departure interval [%g, %g]", in.UI.Lo, in.UI.Hi)
	}

	if in.State == nil {
		// First segment: a fresh evaluation from the point departure
		// interval [t, t], exactly what the incremental evaluators
		// compute — so the memo applies, and its answers are
		// byte-identical by the store-equivalence guarantee.
		if in.UI.Lo != in.Depart || in.UI.Hi != in.Depart {
			return nil, fmt.Errorf("core: a first segment must start from the point interval [depart, depart], got [%g, %g]", in.UI.Lo, in.UI.Hi)
		}
		st, err := h.pathState(in.Ctx, m, in.Path, in.Depart, opt)
		if err != nil {
			return nil, err
		}
		// Outgoing UI: Eq. 3 chained across the whole segment, which the
		// state carries.
		return &SegmentResult{
			State:   &ChainState{cs: st.inter[len(st.inter)-1]},
			UI:      st.next,
			Factors: len(st.de.Vars),
			MaxRank: st.de.MaxRank(),
		}, nil
	}

	if !in.State.AccOnly() {
		return nil, fmt.Errorf("core: continuation state must be accumulator-only, has open dims %v", in.State.cs.open)
	}
	ca, uiOut, err := h.buildCandidateArrayFrom(in.Path, in.UI)
	if err != nil {
		return nil, err
	}
	defer ca.Release()
	var de *Decomposition
	switch opt.Method {
	case MethodOD:
		de = ca.CoarsestDecomposition(opt.RankCap)
	case MethodHP:
		de = ca.PairDecomposition()
	case MethodLB:
		de = ca.UnitDecomposition()
	default:
		return nil, fmt.Errorf("core: unknown method %q", opt.Method)
	}
	// The relayed state has no open dims, so the first multiply is the
	// independent outer product — the identical operation whole-path
	// evaluation performs right after its boundary fold. No arena: the
	// caller's state (and anything sharing its buffers) stays untouched.
	state, err := h.runChain(in.Ctx, de, in.State.cs, nil, nil)
	if err != nil {
		return nil, err
	}
	return &SegmentResult{
		State:   &ChainState{cs: state},
		UI:      uiOut,
		Factors: len(de.Vars),
		MaxRank: de.MaxRank(),
	}, nil
}

// FilterVariables derives a model holding exactly the trajectory-backed
// variables keep accepts, sharing Variable pointers with the receiver.
// Insertion follows ForEachVariable's deterministic order and rows are
// re-sorted the way the model loader does, so a filtered model
// serializes byte-stably. CoveredEdges is recomputed from the kept
// rank-1 variables; EdgesWithData (a property of the training data,
// not the variable set) carries over.
func (h *HybridGraph) FilterVariables(keep func(*Variable) bool) *HybridGraph {
	out := &HybridGraph{
		G:         h.G,
		Params:    h.Params,
		vars:      make(map[string]*pathVars),
		unit:      make([]*pathVars, h.G.NumEdges()),
		byStart:   make([][]*pathVars, h.G.NumEdges()),
		fallbacks: make(map[graph.EdgeID]*Variable),
	}
	out.stats.VariablesByRank = make([]int, len(h.stats.VariablesByRank))
	covered := make(map[graph.EdgeID]bool)
	h.ForEachVariable(func(v *Variable) {
		if !keep(v) {
			return
		}
		out.addVariable(v)
		if v.Rank() == 1 && !v.SpeedLimit {
			covered[v.Path[0]] = true
		}
	})
	sortRows(out)
	out.stats.CoveredEdges = len(covered)
	out.stats.EdgesWithData = h.stats.EdgesWithData
	return out
}
