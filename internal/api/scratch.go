package api

import (
	"testing"

	pathcost "repro"
	"repro/internal/hist"
)

// Scratch is one request's storage: the edge ids its body carries,
// the paths validated from them, a batch's entries, results and
// envelope, relayed states, and the distribution and state answers.
// Endpoint and Batch take one from a pool with the request and return
// it once the answer is written, so a request answered from the query
// cache allocates none of it. A coordinator's relay leg decodes its
// shard's answer into a Scratch of its own.
//
// What a Scratch hands out dies with the answer. Nothing of it may
// reach core, the memo or a cache, nor a relay leg still running after
// the handler returns: pathcost.System.PathDistributionGated evaluates
// a copy of the path it is given, core copies the paths and states it
// keeps, and the coordinator marshals a leg's body before the leg
// starts. A nil *Scratch hands out fresh memory, for callers that keep
// what they are given.
type Scratch struct {
	ints    []int64
	edges   []pathcost.EdgeID
	queries []BatchQuery
	results []BatchResult
	answers []distAnswer
	states  []StateResult
	// bytes holds relayed and answered states back to back. It grows by
	// append: what was handed out is capped, and never written again.
	bytes []byte
	batch BatchResponse
}

// distAnswer is a distribution answer with the storage its ProbWithin
// points to.
type distAnswer struct {
	resp   DistributionResponse
	within float64
}

// maxPooledIDs bounds the id and edge storage a pooled Scratch keeps,
// and maxPooledBuffer its state bytes: what one bulk batch grew past
// them is left to the collector.
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

// batchResults returns an empty slice with room for n results.
func (s *Scratch) batchResults(n int) []BatchResult {
	if s == nil {
		return make([]BatchResult, 0, n)
	}
	return take(&s.results, n)[:0]
}

// Results returns n zero batch results (Reset zeroes what a request
// took).
func (s *Scratch) Results(n int) []BatchResult {
	if s == nil {
		return make([]BatchResult, n)
	}
	return take(&s.results, n)
}

// state returns a zero StateResult.
func (s *Scratch) state() *StateResult {
	if s == nil {
		return new(StateResult)
	}
	return &take(&s.states, 1)[0]
}

// grow is slices.Grow for bytes, at least doubling, written out so
// that under the race detector too it allocates the grown array only.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	g := make([]byte, len(b), max(2*cap(b), len(b)+n))
	copy(g, b)
	return g
}

// appendBytes hands app the free end of s's byte storage and returns
// what app appended to it, capped. app may only append.
func (s *Scratch) appendBytes(app func([]byte) ([]byte, bool)) ([]byte, bool) {
	if s == nil {
		return app(nil)
	}
	start := len(s.bytes)
	b, ok := app(s.bytes)
	if !ok {
		return nil, false
	}
	s.bytes = b
	return b[start:len(b):len(b)], true
}

// path returns n edges to validate a path into.
func (s *Scratch) path(n int) pathcost.Path {
	if s == nil {
		return make(pathcost.Path, n)
	}
	return take(&s.edges, n)
}

// State shapes one evaluated segment's answer, with the state's
// encoding in s's storage. The state itself stays the caller's.
func (s *Scratch) State(res *pathcost.SegmentResult) (*StateResult, error) {
	var err error
	enc, _ := s.appendBytes(func(b []byte) ([]byte, bool) {
		b, err = res.State.AppendEncode(b)
		return b, err == nil
	})
	if err != nil {
		return nil, err
	}
	st := s.state()
	*st = StateResult{State: enc, UILo: res.UI.Lo, UIHi: res.UI.Hi, Factors: res.Factors, MaxRank: res.MaxRank}
	return st, nil
}

// Distribution shapes one evaluated cost distribution: sum is dist's
// Summary, and the buckets are dist's own, which the answer only reads.
// dec is the digit record of sum and dist (core.QueryResult.Decimals),
// or nil; with one, the answer's numbers are written from it, in the
// same bytes. Both the single-process server and the sharded
// coordinator assemble their distribution bodies here, from the same
// scalar inputs, so a coordinator that reproduces the single-process
// histogram bit-exactly also reproduces the response bytes exactly.
func (s *Scratch) Distribution(method string, interval int, dist *hist.Histogram, sum hist.Summary, dec hist.Decimals, budget float64, decompPaths, maxRank int, evalUS int64) *DistributionResponse {
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
		decimals:    dec,
	}
	if budget > 0 {
		a.within = dist.ProbWithin(budget)
		a.resp.ProbWithin = &a.within
	}
	return &a.resp
}

// poisonReleased makes Reset scramble the ids, edges and state bytes a
// request was handed, in test binaries only: a reader that outlived
// its request then reads invalid edges and states instead of passing
// by luck.
var poisonReleased = testing.Testing()

// Reset readies s for the next request or relay leg. Entries, results
// and answers are zeroed, so a pooled Scratch holds no request bytes
// or histograms.
func (s *Scratch) Reset() {
	if poisonReleased {
		for i := range s.ints {
			s.ints[i] = ^s.ints[i]
		}
		for i := range s.edges {
			s.edges[i] = ^s.edges[i]
		}
		for i := range s.bytes {
			s.bytes[i] = ^s.bytes[i]
		}
	}
	clear(s.queries)
	clear(s.results)
	clear(s.answers)
	clear(s.states)
	s.ints, s.edges, s.bytes = s.ints[:0], s.edges[:0], s.bytes[:0]
	s.queries, s.results, s.answers, s.states = s.queries[:0], s.results[:0], s.answers[:0], s.states[:0]
	s.batch = BatchResponse{}
	if cap(s.ints) > maxPooledIDs || cap(s.edges) > maxPooledIDs {
		s.ints, s.edges = nil, nil
	}
	if cap(s.bytes) > maxPooledBuffer {
		s.bytes = nil
	}
}
