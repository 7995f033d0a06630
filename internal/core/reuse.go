package core

import (
	"repro/internal/graph"
)

// Reuse is the reuse handle behind the path-state evaluator (Section
// 4.3's "path + another edge" property across queries): it carries both
// tiers of stored PathStates — the immutable offline synopsis, probed
// first, and the epoch-scoped view of the runtime ConvMemo, which is
// offered every state derived past the probed base — and owns, once
// each, the key, the longest-prefix probe and the offer. It has one
// reader, pathState, which serves CostDistributionCtx, the first segment
// of EvaluateSegment and the synopsis build and rebuild, so answers are
// byte-identical with both tiers, either or neither attached. A routing
// search never reads it: each expansion resumes from its parent's state.
//
// A Reuse is immutable; attachments change by swapping in a new value
// (WithSynopsis, WithMemo, NextEpoch). The nil *Reuse is the valid
// "no tiers" handle and every method accepts it.
type Reuse struct {
	syn  *SynopsisStore
	memo *ConvMemo
}

// NewReuse bundles the two tiers; either may be nil, and with both nil
// the handle itself is nil.
func NewReuse(syn *SynopsisStore, memo *ConvMemo) *Reuse {
	if syn == nil && memo == nil {
		return nil
	}
	return &Reuse{syn: syn, memo: memo}
}

// Synopsis returns the offline tier, or nil.
func (r *Reuse) Synopsis() *SynopsisStore {
	if r == nil {
		return nil
	}
	return r.syn
}

// Memo returns the runtime tier (an epoch-scoped view when the handle
// belongs to a model epoch), or nil.
func (r *Reuse) Memo() *ConvMemo {
	if r == nil {
		return nil
	}
	return r.memo
}

// WithSynopsis returns the handle with its offline tier replaced.
func (r *Reuse) WithSynopsis(syn *SynopsisStore) *Reuse { return NewReuse(syn, r.Memo()) }

// WithMemo returns the handle with its runtime tier replaced.
func (r *Reuse) WithMemo(m *ConvMemo) *Reuse { return NewReuse(r.Synopsis(), m) }

// NextEpoch carries the handle across a model publish: the synopsis is
// rebuilt against the new hybrid h (entries stale says the update
// touched are re-materialized, see SynopsisStore.Rebuild) and the memo
// is re-scoped to epoch seq, so no state computed against the old
// model can answer a query on the new one. A synopsis that fails to
// rebuild is dropped — serving the new epoch without one beats
// refusing the publish; the store can be rebuilt offline.
func (r *Reuse) NextEpoch(seq uint64, h *HybridGraph, stale func(graph.Path) bool) (*Reuse, SynopsisRebuildStats) {
	var (
		syn   *SynopsisStore
		memo  *ConvMemo
		stats SynopsisRebuildStats
	)
	if old := r.Synopsis(); old != nil {
		if s, st, err := old.Rebuild(h, stale); err == nil {
			syn, stats = s, st
		}
	}
	if m := r.Memo(); m != nil {
		memo = m.ForEpoch(seq)
	}
	return NewReuse(syn, memo), stats
}

// active reports whether any tier can hold states of method m: there
// is a tier, and m has an incremental (chain) evaluator — RD's random
// decomposition does not, so it bypasses both.
func (r *Reuse) active(m Method) bool {
	return r != nil && memoizable(m)
}

// slot is one exact state identity in both tiers' key spaces. They
// differ on purpose: a synopsis is rebuilt per epoch so its keys carry
// no epoch tag, while the memo may be an epoch-scoped view of an LRU
// shared across epochs.
type slot struct{ syn, memo string }

// slot builds the keys of path p departing at t under opt — the one
// place the memo's epoch prefix is applied. Both keys are rendered
// once into one buffer: the synopsis key is the memo key past the
// epoch prefix.
func (r *Reuse) slot(p graph.Path, t float64, opt QueryOptions) slot {
	var buf [memoKeyStackBytes]byte
	b := buf[:0]
	if r.memo != nil {
		b = append(b, r.memo.prefix...)
	}
	n := len(b)
	full := string(appendMemoKeyTail(p.AppendKey(b), t, opt))
	if r.memo == nil {
		return slot{syn: full}
	}
	return slot{syn: full[n:], memo: full}
}

// offer hands a freshly derived state to the runtime tier.
func (r *Reuse) offer(k slot, s *PathState) {
	if r.memo != nil {
		r.memo.lru.Put(k.memo, s)
	}
}

// longestPrefix returns the deepest prefix state of p either tier
// holds and its edge count (nil, 0 when neither holds any); at equal
// depth the synopsis wins. The scan only peeks and the committed base
// alone is counted, so one logical query counts one synopsis hit or
// miss and at most one memo hit or miss however deep the scan went; a
// concurrent eviction between the memo's Peek and Get costs a stats
// blip, never a wrong base. Callers check active first.
func (r *Reuse) longestPrefix(p graph.Path, t float64, opt QueryOptions) (*PathState, int) {
	var (
		st      *PathState
		base    int
		synBase bool
		full    slot
	)
	for n := len(p); n >= 1; n-- {
		k := r.slot(p[:n], t, opt)
		if n == len(p) {
			full = k
		}
		if r.syn != nil {
			if s, ok := r.syn.peek(k.syn); ok {
				st, base, synBase = s, n, true
				break
			}
		}
		if r.memo != nil {
			if s, ok := r.memo.lru.Peek(k.memo); ok {
				st, base = s, n
				r.memo.lru.Get(k.memo)
				break
			}
		}
	}
	if r.syn != nil {
		if synBase {
			r.syn.hits.Add(1)
		} else {
			r.syn.misses.Add(1)
		}
	}
	if st == nil && r.memo != nil {
		r.memo.lru.Get(full.memo) // count the cold miss
	}
	return st, base
}
