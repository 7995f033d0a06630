package core

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/graph"
)

// ConvMemo is the incremental sub-path convolution engine: a
// prefix-keyed memo of PathStates layered on the internal/cache LRU.
// Evaluating an n-edge path runs a chain of factor convolutions
// (Equation 2); the entries of one /v1/batch request and successive
// PathDistribution calls share long prefixes, and the memo lets a
// query resume from the stored chain state of its longest seen prefix
// instead of re-deriving the whole path.
//
// Keys are exact: (path signature, departure time, method, rank cap).
// Unlike the α-interval query cache, two departures in the same
// interval do NOT share a memo entry — the shift-and-enlarge windows
// of Eq. 3 depend on the exact departure — so memoized results are
// byte-identical to unmemoized ones, never approximate.
//
// A ConvMemo is safe for concurrent use: the LRU shards its locks and
// the memoized PathStates are immutable after construction (every
// chain operation builds new states). One memo may be shared by any
// number of concurrent distribution queries.
type ConvMemo struct {
	lru *cache.LRU[*PathState]
	// prefix namespaces every key with the model epoch the entries
	// were computed against (see ForEpoch). Empty for a standalone
	// memo, whose entries then have no epoch identity.
	prefix string
}

// NewConvMemo builds a memo holding at most capacity prefix states.
// capacity < 1 is treated as 1.
func NewConvMemo(capacity int) *ConvMemo {
	return &ConvMemo{lru: cache.NewLRU[*PathState](capacity)}
}

// ForEpoch returns a view of the memo whose keys carry the given
// epoch sequence number. Views share the underlying LRU — its
// capacity, shards and statistics — but entries written through one
// epoch's view are invisible to every other epoch: publishing a new
// model invalidates logically, with stale entries aging out of the
// shared LRU instead of being flushed wholesale.
func (m *ConvMemo) ForEpoch(seq uint64) *ConvMemo {
	return &ConvMemo{lru: m.lru, prefix: "e" + strconv.FormatUint(seq, 10) + "|"}
}

// Stats snapshots the memo's hit/miss/eviction counters.
func (m *ConvMemo) Stats() cache.Stats { return m.lru.Stats() }

// memoKey is the exact identity of a prefix state. The departure is
// formatted losslessly ('b' is exact for float64), so distinct
// departures never alias.
func memoKey(pathKey string, t float64, opt QueryOptions) string {
	var buf [memoKeyStackBytes]byte
	return string(appendMemoKeyTail(append(buf[:0], pathKey...), t, opt))
}

// appendMemoKeyTail appends everything of a memoKey after the path
// signature.
func appendMemoKeyTail(b []byte, t float64, opt QueryOptions) []byte {
	b = strconv.AppendFloat(append(b, '@'), t, 'b', -1, 64)
	b = append(append(b, '/'), opt.Method...)
	return strconv.AppendInt(append(b, '#'), int64(opt.RankCap), 10)
}

// memoKeyStackBytes sizes the stack buffer a key is rendered into, so
// the returned string is its only allocation for paths of a few dozen
// edges; a longer key spills to the heap and stays correct.
const memoKeyStackBytes = 320

// memoizable reports whether the method has an incremental (chain)
// evaluator; RD's random decomposition does not.
func memoizable(m Method) bool {
	return m == MethodOD || m == MethodHP || m == MethodLB
}

// CostDistributionMemo is CostDistribution resuming from, and feeding,
// a standalone memo: CostDistributionCtx with a memo-only handle.
func (h *HybridGraph) CostDistributionMemo(m *ConvMemo, p graph.Path, t float64, opt QueryOptions) (*QueryResult, error) {
	return h.CostDistributionCtx(nil, NewReuse(nil, m), p, t, opt)
}
