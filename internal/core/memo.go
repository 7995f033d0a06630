package core

import (
	"bytes"
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
// instead of re-deriving the whole path. It is the one reuse tier
// behind the path-state evaluator (Section 4.3's "path + another edge"
// property across queries) and has one reader, pathState, which serves
// CostDistributionCtx and the first segment of EvaluateSegment: it
// probes for the longest stored prefix and offers every state derived
// past it. A routing search never reads it: each expansion resumes from
// its parent's state.
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

// key appends the exact identity of path p departing at t under opt
// in this view's key space to b: the epoch prefix, the departure,
// formatted losslessly ('b' is exact for float64, so distinct
// departures never alias), the method and the rank cap, and the path
// signature last. Edge ids are comma-separated and nothing before them
// holds a comma, so the key of every prefix p[:n] is the first bytes
// of p's key, ending before the n-th comma: longestPrefix probes by
// slicing.
func (m *ConvMemo) key(b []byte, p graph.Path, t float64, opt QueryOptions) []byte {
	b = strconv.AppendFloat(append(b, m.prefix...), t, 'b', -1, 64)
	b = append(append(b, '/'), opt.Method...)
	b = strconv.AppendInt(append(b, '#'), int64(opt.RankCap), 10)
	return p.AppendKey(append(b, '|'))
}

// memoKeyStackBytes sizes the stack buffer a key is rendered into, so
// that probes allocate nothing and an offer's string is its only
// allocation for paths of a few dozen edges; a longer key spills to
// the heap and stays correct.
const memoKeyStackBytes = 320

// memoizable reports whether the method has an incremental (chain)
// evaluator; RD's random decomposition does not.
func memoizable(m Method) bool {
	return m == MethodOD || m == MethodHP || m == MethodLB
}

// active reports whether the memo can hold states of method mt: there
// is a memo, and mt has an incremental (chain) evaluator — RD's random
// decomposition does not, so it bypasses the memo. The nil memo is
// valid and never active.
func (m *ConvMemo) active(mt Method) bool {
	return m != nil && memoizable(mt)
}

// offer stores a freshly derived state under its exact identity.
func (m *ConvMemo) offer(p graph.Path, t float64, opt QueryOptions, s *PathState) {
	var buf [memoKeyStackBytes]byte
	m.lru.Put(string(m.key(buf[:0], p, t, opt)), s)
}

// longestPrefix returns the deepest prefix state of p the memo holds
// and its edge count (nil, 0 when it holds none). The scan only peeks
// and the committed base alone is counted, so one logical query counts
// at most one hit or miss however deep the scan went; a concurrent
// eviction between Peek and Get costs a stats blip, never a wrong base.
// Callers check active first.
func (m *ConvMemo) longestPrefix(p graph.Path, t float64, opt QueryOptions) (*PathState, int) {
	var buf [memoKeyStackBytes]byte
	full := m.key(buf[:0], p, t, opt)
	k := full
	for n := len(p); n >= 1; n-- {
		if s, ok := m.lru.Peek(k); ok {
			m.lru.GetBytes(k)
			return s, n
		}
		if n > 1 {
			k = k[:bytes.LastIndexByte(k, ',')] // p[:n-1]'s key
		}
	}
	m.lru.GetBytes(full) // count the cold miss
	return nil, 0
}

// CostDistributionMemo is CostDistribution resuming from, and feeding,
// a standalone memo.
func (h *HybridGraph) CostDistributionMemo(m *ConvMemo, p graph.Path, t float64, opt QueryOptions) (*QueryResult, error) {
	return h.CostDistributionCtx(nil, m, p, t, opt)
}
