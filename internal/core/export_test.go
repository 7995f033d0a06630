package core

import (
	"bytes"
	"math"

	"repro/internal/graph"
)

// stateV1Version heads the retired text relay format.
const stateV1Version = "pstate-v1"

// EncodeStateV1 writes the text pstate-v1 dump an earlier release put
// on the wire. DecodeChainState no longer reads that format, so the
// writer exists for tests alone: they need real v1 input to assert the
// rejection with.
func EncodeStateV1(s *ChainState) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(stateV1Version + "\n")
	if err := writeChainState(&buf, "s", s.cs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// extendRefolding is ExtendPath(nil, prev, e) in the order recompute
// used before the siblings of a DFS node shared their parent's fold:
// the resume state is folded again from prev's pre-fold state even
// when prev already holds that very fold. The shared fold is hidden
// behind a copy of prev whose last intermediate state claims a fold
// target no decomposition asks for, so recompute's own refold branch
// runs — the old order, reachable from tests alone.
func extendRefolding(h *HybridGraph, prev *PathState, e graph.EdgeID) (*PathState, error) {
	hidden := &PathState{h: prev.h, path: prev.path, t: prev.t, opt: prev.opt, de: prev.de, preFold: prev.preFold}
	hidden.inter = append([]*chainState(nil), prev.inter...)
	last := len(hidden.inter) - 1
	hidden.inter[last] = &chainState{m: prev.inter[last].m, open: []int{-1}}
	ns := &PathState{h: h, path: append(prev.path.Clone(), e), t: prev.t, opt: prev.opt}
	if err := ns.recompute(hidden, math.Inf(1)); err != nil {
		return nil, err
	}
	return ns, nil
}
