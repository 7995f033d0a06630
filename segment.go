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
// open positions. Malformed input errors, never panics. The state is
// the caller's: Release it once the evaluation it seeds is done.
func DecodeChainState(data []byte, pathLen int) (*ChainState, error) {
	return core.DecodeChainState(data, pathLen)
}

// EvaluateSegment evaluates one segment of a partitioned query against
// the current epoch's model and memo view. With the memo on, a first
// segment resumes from and feeds the memo, and its state is the
// memo's; every other segment runs the chain a memo-free
// CostDistribution runs, a continuation from the relayed state, which
// it only reads. The result's state is the caller's to Release once
// encoded (a memo-backed one ignores the call). The query cache is
// bypassed: partial states are intermediate values keyed by relay
// context, not whole-query answers.
func (s *System) EvaluateSegment(in SegmentInput) (*SegmentResult, error) {
	ep := s.epoch.Load()
	return ep.Hybrid.EvaluateSegment(ep.memo.Load(), in)
}
