package core

import (
	"container/heap"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
)

// SynopsisStore is the offline sub-path synopsis: a read-only set of
// pre-materialized PathStates for the sub-paths a workload reuses
// most, selected under an entry/byte budget and persisted with the
// model (WriteModelSynopsis/ReadHybridSynopsis). Where the runtime
// ConvMemo warms up lazily — every cold server start and every evicted
// prefix pays full convolution cost again — the synopsis is trained
// once, ships inside the model file, and answers its sub-paths with
// zero convolutions from the first query onward.
//
// Entries are keyed exactly like memo entries: (path signature, exact
// departure time, method, rank cap), so synopsis-backed answers are
// byte-identical to unmemoized evaluation, never approximate. A store
// is immutable after BuildSynopsis or load; the hit/miss counters are
// atomic, so one store may serve any number of concurrent queries.
type SynopsisStore struct {
	opt     QueryOptions
	entries map[string]*PathState
	// keys lists the entry keys in sorted order so serialization and
	// inspection are deterministic.
	keys  []string
	bytes int

	report SynopsisReport

	hits, misses atomic.Uint64
}

// WorkloadQuery is one observation of a query log (or one synthetic
// stand-in): a path queried at a departure time, with an optional
// multiplicity. BuildSynopsis scores candidate sub-paths by how much
// convolution work across the whole workload they would absorb.
type WorkloadQuery struct {
	Path   graph.Path
	Depart float64
	// Weight is the query's multiplicity in the log; 0 counts as 1.
	Weight int
}

// SynopsisConfig tunes the offline selection pass.
type SynopsisConfig struct {
	// MaxEntries is the entry budget (required, > 0).
	MaxEntries int
	// MaxBytes bounds the serialized size of the selected entries;
	// 0 means unbounded. Candidates that would overflow the remaining
	// byte budget are skipped, not truncated.
	MaxBytes int
	// Method and RankCap fix the query options the synopsis serves
	// (entries only match queries with the same options). Method ""
	// means OD; RD has no incremental evaluator and is rejected.
	Method  Method
	RankCap int
	// MinDepth is the smallest prefix cardinality worth materializing
	// (0 means 2: single-edge states save too little to spend budget
	// on unless explicitly requested).
	MinDepth int
}

// SynopsisReport summarizes one selection pass.
type SynopsisReport struct {
	// Queries is the number of distinct (path, depart) workload
	// queries; Candidates the number of distinct candidate prefixes.
	Queries, Candidates int
	// Selected entries and their serialized Bytes.
	Selected int
	Bytes    int
	// SavedSteps is the workload-weighted number of per-edge chain
	// steps the selected entries absorb; TotalSteps is the workload's
	// total (the upper bound a perfect synopsis would reach).
	SavedSteps, TotalSteps int
}

// SynopsisStats is a point-in-time snapshot of a store's size and
// probe counters.
type SynopsisStats struct {
	Entries int
	Bytes   int
	Hits    uint64
	Misses  uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any probe.
func (s SynopsisStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func newSynopsisStore(opt QueryOptions) *SynopsisStore {
	return &SynopsisStore{opt: opt, entries: make(map[string]*PathState)}
}

// Len returns the number of materialized entries.
func (s *SynopsisStore) Len() int { return len(s.entries) }

// Bytes returns the serialized size of the store's entries.
func (s *SynopsisStore) Bytes() int { return s.bytes }

// Options returns the query options the store was built for.
func (s *SynopsisStore) Options() QueryOptions { return s.opt }

// Report returns the selection report (zero for loaded stores, whose
// selection ran in the training process).
func (s *SynopsisStore) Report() SynopsisReport { return s.report }

// Stats snapshots the store's size and probe counters.
func (s *SynopsisStore) Stats() SynopsisStats {
	return SynopsisStats{
		Entries: len(s.entries),
		Bytes:   s.bytes,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
	}
}

// Keys returns the entry keys in sorted order (for inspection).
func (s *SynopsisStore) Keys() []string {
	return append([]string(nil), s.keys...)
}

// peek looks an exact key up without touching the probe counters.
func (s *SynopsisStore) peek(key string) (*PathState, bool) {
	st, ok := s.entries[key]
	return st, ok
}

// Lookup returns the materialized state for exactly path p departing
// at t under opt, counting one probe.
func (s *SynopsisStore) Lookup(p graph.Path, t float64, opt QueryOptions) (*PathState, bool) {
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	st, ok := s.peek(memoKey(p.Key(), t, opt))
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return st, ok
}

// add registers a materialized entry. Callers keep keys unique.
func (s *SynopsisStore) add(key string, st *PathState, nbytes int) {
	s.entries[key] = st
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	s.bytes += nbytes
}

// --- budgeted selection ----------------------------------------------

// synCandidate is one candidate prefix: a sub-path some workload
// queries share, with the query indexes it would serve.
type synCandidate struct {
	key     string
	prefix  graph.Path
	depart  float64
	depth   int
	queries []int
}

// candHeap is a max-heap over cached marginal scores, ties broken by
// ascending key so selection is deterministic.
type candHeap []*candHeapItem

type candHeapItem struct {
	c     *synCandidate
	score int
}

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].c.key < h[j].c.key
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(*candHeapItem)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// BuildSynopsis runs the offline selection pass: it enumerates every
// prefix of every workload query as a candidate, scores candidates by
// the chain steps they would absorb (weight × prefix depth, the
// frequency × convolution-depth-saved objective), and greedily selects
// the best marginal candidate until the entry or byte budget is
// exhausted. The marginal gain of a candidate shrinks as deeper
// prefixes of the same queries are selected (a query resumes from its
// deepest materialized prefix only), so selection uses a lazy greedy
// over the submodular coverage objective: popped candidates are
// re-scored against current coverage and re-queued unless they still
// dominate.
//
// Selected prefixes are materialized through a build-local ConvMemo,
// so overlapping candidates share their convolution work.
func (h *HybridGraph) BuildSynopsis(workload []WorkloadQuery, cfg SynopsisConfig) (*SynopsisStore, error) {
	opt := QueryOptions{Method: cfg.Method, RankCap: cfg.RankCap}
	if opt.Method == "" {
		opt.Method = MethodOD
	}
	if !memoizable(opt.Method) {
		return nil, fmt.Errorf("core: method %q has no incremental evaluator; a synopsis cannot serve it", opt.Method)
	}
	if cfg.MaxEntries <= 0 {
		return nil, fmt.Errorf("core: synopsis entry budget must be positive, got %d", cfg.MaxEntries)
	}
	minDepth := cfg.MinDepth
	if minDepth <= 0 {
		minDepth = 2
	}
	if len(workload) == 0 {
		return nil, fmt.Errorf("core: empty workload sample")
	}

	// Deduplicate the workload by exact (path, depart) identity.
	type wq struct {
		path   graph.Path
		depart float64
		weight int
	}
	qIndex := make(map[string]int)
	var qs []wq
	for _, q := range workload {
		if !h.G.ValidPath(q.Path) {
			return nil, fmt.Errorf("core: workload query %v is not a valid path", q.Path)
		}
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		key := memoKey(q.Path.Key(), q.Depart, opt)
		if i, ok := qIndex[key]; ok {
			qs[i].weight += w
			continue
		}
		qIndex[key] = len(qs)
		qs = append(qs, wq{path: q.Path.Clone(), depart: q.Depart, weight: w})
	}

	// Candidate prefixes, with the queries each would serve.
	cands := make(map[string]*synCandidate)
	for qi, q := range qs {
		for n := minDepth; n <= len(q.path); n++ {
			key := memoKey(q.path[:n].Key(), q.depart, opt)
			c, ok := cands[key]
			if !ok {
				c = &synCandidate{
					key: key, prefix: q.path[:n].Clone(),
					depart: q.depart, depth: n,
				}
				cands[key] = c
			}
			c.queries = append(c.queries, qi)
		}
	}

	syn := newSynopsisStore(opt)
	syn.report.Queries = len(qs)
	syn.report.Candidates = len(cands)
	for _, q := range qs {
		syn.report.TotalSteps += q.weight * len(q.path)
	}

	// covered[qi] is the depth of the deepest selected prefix of query
	// qi; a candidate's marginal gain is the extra depth it adds,
	// workload-weighted.
	covered := make([]int, len(qs))
	marginal := func(c *synCandidate) int {
		sum := 0
		for _, qi := range c.queries {
			if d := c.depth - covered[qi]; d > 0 {
				sum += qs[qi].weight * d
			}
		}
		return sum
	}

	pq := make(candHeap, 0, len(cands))
	for _, c := range cands {
		if s := marginal(c); s > 0 {
			pq = append(pq, &candHeapItem{c: c, score: s})
		}
	}
	heap.Init(&pq)

	build := NewReuse(nil, NewConvMemo(4*cfg.MaxEntries))
	for pq.Len() > 0 && len(syn.entries) < cfg.MaxEntries {
		it := heap.Pop(&pq).(*candHeapItem)
		fresh := marginal(it.c)
		if fresh <= 0 {
			continue
		}
		if pq.Len() > 0 && fresh < pq[0].score {
			// Stale score: coverage grew since this candidate was
			// queued. Cached scores only ever shrink, so re-queue with
			// the fresh score and keep popping.
			it.score = fresh
			heap.Push(&pq, it)
			continue
		}
		st, err := h.pathState(nil, build, it.c.prefix, it.c.depart, opt)
		if err != nil {
			return nil, fmt.Errorf("core: materializing synopsis entry %v: %w", it.c.prefix, err)
		}
		nbytes, err := synopsisEntryBytes(st)
		if err != nil {
			return nil, err
		}
		if cfg.MaxBytes > 0 && syn.bytes+nbytes > cfg.MaxBytes {
			continue // over the byte budget: drop, try smaller candidates
		}
		syn.add(it.c.key, st, nbytes)
		for _, qi := range it.c.queries {
			if it.c.depth > covered[qi] {
				covered[qi] = it.c.depth
			}
		}
	}
	for qi, q := range qs {
		syn.report.SavedSteps += q.weight * covered[qi]
	}
	syn.report.Selected = len(syn.entries)
	syn.report.Bytes = syn.bytes
	return syn, nil
}

// Rebuild produces the synopsis for a new model epoch: entries whose
// path the update provably did not affect (per the stale predicate,
// typically "shares an edge with the batch") are carried over by
// pointer — their chain states reference variables the new hybrid
// shares with the old one — and stale entries are re-materialized
// against the new hybrid. Entries that can no longer be materialized
// (their paths lost coverage, possible under decay) are dropped and
// counted. The receiver is unchanged and keeps serving the old epoch;
// hit/miss counters start fresh on the returned store.
func (s *SynopsisStore) Rebuild(h *HybridGraph, stale func(graph.Path) bool) (*SynopsisStore, SynopsisRebuildStats, error) {
	out := newSynopsisStore(s.opt)
	out.report = s.report
	var st SynopsisRebuildStats
	// A build-local memo so re-materialized entries share prefix work,
	// exactly as BuildSynopsis does.
	build := NewReuse(nil, NewConvMemo(4*len(s.entries)+16))
	for _, key := range s.keys {
		entry := s.entries[key]
		if !stale(entry.path) {
			nbytes, err := synopsisEntryBytes(entry)
			if err != nil {
				return nil, st, err
			}
			out.add(key, entry, nbytes)
			st.Carried++
			continue
		}
		ns, err := h.pathState(nil, build, entry.path, entry.t, entry.opt)
		if err != nil {
			st.Dropped++
			continue
		}
		nbytes, err := synopsisEntryBytes(ns)
		if err != nil {
			return nil, st, err
		}
		out.add(key, ns, nbytes)
		st.Rematerialized++
	}
	return out, st, nil
}

// SynopsisRebuildStats summarizes one per-epoch synopsis rebuild.
type SynopsisRebuildStats struct {
	// Carried entries were shared with the previous epoch unchanged;
	// Rematerialized were recomputed against the new model; Dropped
	// could no longer be materialized and were evicted.
	Carried, Rematerialized, Dropped int
}
