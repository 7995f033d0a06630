package api

import (
	"testing"

	pathcost "repro"
	"repro/internal/hist"
)

// Scratch is one request's storage: the edge ids its body carries,
// the paths validated from them, a batch's entries, results and
// envelope, and the distribution answers. Endpoint and Batch take one
// from a pool with the request and return it once the answer is
// written, so a request answered from the query cache allocates none
// of it.
//
// What a Scratch hands out dies with the answer. Nothing of it may
// reach core, the memo or a cache, nor a relay leg still running after
// the handler returns: pathcost.System.PathDistributionGated evaluates
// a copy of the path it is given, and the coordinator marshals a leg's
// body before the leg starts. A nil *Scratch hands out fresh memory,
// for callers that keep what they are given.
type Scratch struct {
	ints    []int64
	edges   []pathcost.EdgeID
	queries []BatchQuery
	results []BatchResult
	answers []distAnswer
	batch   BatchResponse
}

// distAnswer is a distribution answer with the storage its ProbWithin
// points to.
type distAnswer struct {
	resp   DistributionResponse
	within float64
}

// maxPooledIDs bounds the id and edge storage a pooled Scratch keeps:
// a body one bulk batch grew past it is left to the collector.
const maxPooledIDs = 1 << 12

// take returns the next n elements of *arena. When the arena is full
// it starts a larger array: what earlier takes returned keeps the old
// one, and the pool keeps the new one.
func take[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(2*cap(a), n))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// int64s returns an empty slice with room for n ids.
func (s *Scratch) int64s(n int) []int64 {
	if s == nil {
		return make([]int64, 0, n)
	}
	return take(&s.ints, n)[:0]
}

// batchQueries returns an empty slice with room for n entries.
func (s *Scratch) batchQueries(n int) []BatchQuery {
	if s == nil {
		return make([]BatchQuery, 0, n)
	}
	return take(&s.queries, n)[:0]
}

// Results returns n zero batch results (reset zeroes what a request
// took).
func (s *Scratch) Results(n int) []BatchResult {
	if s == nil {
		return make([]BatchResult, n)
	}
	return take(&s.results, n)
}

// path returns n edges to validate a path into.
func (s *Scratch) path(n int) pathcost.Path {
	if s == nil {
		return make(pathcost.Path, n)
	}
	return take(&s.edges, n)
}

// Distribution shapes one evaluated cost distribution: sum is dist's
// Summary, and the buckets are dist's own, which the answer only reads.
// Both the single-process server and the sharded coordinator assemble
// their distribution bodies here, from the same scalar inputs, so a
// coordinator that reproduces the single-process histogram bit-exactly
// also reproduces the response bytes exactly.
func (s *Scratch) Distribution(method string, interval int, dist *hist.Histogram, sum hist.Summary, budget float64, decompPaths, maxRank int, evalUS int64) *DistributionResponse {
	var a *distAnswer
	if s == nil {
		a = new(distAnswer)
	} else {
		a = &take(&s.answers, 1)[0]
	}
	a.resp = DistributionResponse{
		Method:      method,
		Interval:    interval,
		MeanS:       sum.Mean,
		P10S:        sum.P10,
		P50S:        sum.P50,
		P90S:        sum.P90,
		Buckets:     dist.Buckets(),
		DecompPaths: decompPaths,
		MaxRank:     maxRank,
		EvalUS:      evalUS,
	}
	if budget > 0 {
		a.within = dist.ProbWithin(budget)
		a.resp.ProbWithin = &a.within
	}
	return &a.resp
}

// poisonReleased makes reset scramble the ids and edges a request was
// handed, in test binaries only: a reader that outlived its request
// then reads invalid edges instead of passing by luck.
var poisonReleased = testing.Testing()

// reset readies s for the next request. Entries, results and answers
// are zeroed, so a pooled Scratch holds no request bytes or histograms.
func (s *Scratch) reset() {
	if poisonReleased {
		for i := range s.ints {
			s.ints[i] = ^s.ints[i]
		}
		for i := range s.edges {
			s.edges[i] = ^s.edges[i]
		}
	}
	clear(s.queries)
	clear(s.results)
	clear(s.answers)
	s.ints, s.edges = s.ints[:0], s.edges[:0]
	s.queries, s.results, s.answers = s.queries[:0], s.results[:0], s.answers[:0]
	s.batch = BatchResponse{}
	if cap(s.ints) > maxPooledIDs || cap(s.edges) > maxPooledIDs {
		s.ints, s.edges = nil, nil
	}
}
