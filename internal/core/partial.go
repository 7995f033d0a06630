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
//
// A handle owns its state exactly when it holds the ring whose slot
// the state lives in: a state DecodeChainState parsed, or one a
// memo-free EvaluateSegment computed. Release pools that ring back with
// the state. A memo-backed first segment's state is shared with the
// memo, which hands it to later queries; its handle holds no ring, and
// Release leaves it alone.
type ChainState struct {
	cs   *chainState
	ring *chainRing // the ring holding cs, on a handle that owns it
}

// Release recycles an owned state's storage for the next evaluation;
// on a state the handle does not own (see ChainState) it does nothing.
// The state is dead afterwards: call Release once nothing reads it any
// more — its Encode, Finalize and every evaluation continued from it
// done. Distributions Finalize returned stay valid. Releasing is
// optional: an unreleased state is garbage collected.
func (s *ChainState) Release() {
	if s == nil || s.ring == nil {
		return
	}
	s.ring.release()
	*s = ChainState{}
}

// AccOnly reports whether the state has folded every edge into the
// accumulated-cost dimension — the only shape a cross-shard relay
// carries.
func (s *ChainState) AccOnly() bool { return len(s.cs.open) == 0 }

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
// whole-path decomposition's cardinality and max rank). State is the
// caller's: it shares nothing with the input state, and the caller may
// Release it once encoded (a memo-backed one ignores the call).
type SegmentResult struct {
	State   *ChainState
	UI      TimeInterval
	Factors int
	MaxRank int
}

// segmentOut is a SegmentResult and its state handle in one allocation.
type segmentOut struct {
	res SegmentResult
	st  ChainState
}

// EvaluateSegment evaluates one segment of a partitioned query. With
// the memo view m active for the method, a first segment (nil state)
// runs the memo's path evaluation — the memo applies only there, since
// its keys assume evaluation from a point departure interval — and
// hands out its final folded state, which the memo may share. Every
// other segment runs the chain a memo-free CostDistribution runs: it
// seeds the candidate array with the segment's departure interval (the
// point [depart, depart] for a first segment, the relayed one for a
// continuation), decomposes the segment locally, and folds its factors
// from the relayed state, or from nothing, into a pooled ring. The
// relayed state is only read, never recycled, and the returned state
// is the caller's own (see ChainState).
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

	var from *chainState
	switch {
	case in.State != nil:
		if !in.State.AccOnly() {
			return nil, fmt.Errorf("core: continuation state must be accumulator-only, has open dims %v", in.State.cs.open)
		}
		from = in.State.cs
	case in.UI.Lo != in.Depart || in.UI.Hi != in.Depart:
		return nil, fmt.Errorf("core: a first segment must start from the point interval [depart, depart], got [%g, %g]", in.UI.Lo, in.UI.Hi)
	case m.active(opt.Method):
		// A first segment evaluates from the point departure interval
		// [t, t], exactly what CostDistributionCtx computes — so the memo
		// applies, and its answers are byte-identical by the
		// store-equivalence guarantee.
		st, err := h.pathState(in.Ctx, m, in.Path, in.Depart, opt)
		if err != nil {
			return nil, err
		}
		// Outgoing UI: Eq. 3 chained across the whole segment, which the
		// state carries. The memo may hold the state: not owned.
		return &SegmentResult{
			State:   &ChainState{cs: st.inter[len(st.inter)-1]},
			UI:      st.next,
			Factors: len(st.de.Vars),
			MaxRank: st.de.MaxRank(),
		}, nil
	}
	de, uiOut, err := h.decomposeFrom(in.Path, in.UI, opt, nil)
	if err != nil {
		return nil, err
	}
	// A relayed state has no open dims, so the first multiply is the
	// independent outer product — the identical operation whole-path
	// evaluation performs right after its boundary fold. The chain's
	// states live in the ring, whose handle the result holds.
	ring := ringPool.Get().(*chainRing)
	state, err := h.runChain(in.Ctx, de, 0, from, nil, nil, ring[:])
	if err != nil {
		ring.release()
		return nil, err
	}
	out := &segmentOut{st: ChainState{cs: state, ring: ring}}
	out.res = SegmentResult{
		State:   &out.st,
		UI:      uiOut,
		Factors: len(de.Vars),
		MaxRank: de.MaxRank(),
	}
	return &out.res, nil
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
