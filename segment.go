package pathcost

import (
	"repro/internal/core"
)

// Cross-shard partial-state evaluation, re-exported for the serving
// tier: a coordinator decomposes a query path at region boundaries and
// relays (ChainState, TimeInterval) pairs shard to shard; each shard
// answers EvaluateSegment against its own model slice. See
// internal/core/partial.go for the byte-identity argument.
type (
	// ChainState is a serializable chain evaluation state.
	ChainState = core.ChainState
	// SegmentInput describes one segment of a partitioned query.
	SegmentInput = core.SegmentInput
	// SegmentResult is one segment's state, interval and shape.
	SegmentResult = core.SegmentResult
	// TimeInterval is an absolute-time interval (Eq. 3).
	TimeInterval = core.TimeInterval
)

// DecodeChainState parses a ChainState.Encode dump; pathLen bounds the
// open positions. Malformed input errors, never panics.
func DecodeChainState(data []byte, pathLen int) (*ChainState, error) {
	return core.DecodeChainState(data, pathLen)
}

// EvaluateSegment evaluates one segment of a partitioned query against
// the current epoch's model and reuse handle. First segments run the
// ordinary incremental evaluation (the handle applies); continuations
// resume from the relayed state and never touch it. The query cache
// is bypassed: partial states are intermediate values keyed by relay
// context, not whole-query answers.
func (s *System) EvaluateSegment(in SegmentInput) (*SegmentResult, error) {
	ep := s.epoch.Load()
	return ep.Hybrid.EvaluateSegment(ep.reuse.Load(), in)
}
