package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/hist"
)

func TestMemoMatchesUnmemoizedByteIdentical(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	path := graph.Path{0, 1, 2, 3, 4}
	memo := NewConvMemo(256)
	for _, method := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: method}
		for _, depart := range []float64{8 * 3600, 8*3600 + 300, 9 * 3600} {
			// Every prefix, twice: the second pass must be answered
			// from memoized states and still match exactly.
			for pass := 0; pass < 2; pass++ {
				for n := 1; n <= len(path); n++ {
					p := path[:n]
					plain, err := h.CostDistribution(p, depart, opt)
					if err != nil {
						t.Fatalf("%s n=%d: plain: %v", method, n, err)
					}
					memod, err := h.CostDistributionMemo(memo, p, depart, opt)
					if err != nil {
						t.Fatalf("%s n=%d: memo: %v", method, n, err)
					}
					ab, bb := plain.Dist.Buckets(), memod.Dist.Buckets()
					if len(ab) != len(bb) {
						t.Fatalf("%s n=%d pass %d: %d vs %d buckets", method, n, pass, len(ab), len(bb))
					}
					for i := range ab {
						if ab[i] != bb[i] {
							t.Fatalf("%s n=%d pass %d bucket %d: plain %+v vs memo %+v",
								method, n, pass, i, ab[i], bb[i])
						}
					}
					if plain.Decomp.Cardinality() != memod.Decomp.Cardinality() ||
						plain.Decomp.MaxRank() != memod.Decomp.MaxRank() {
						t.Fatalf("%s n=%d: decompositions differ", method, n)
					}
				}
			}
		}
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatalf("memo never hit: %+v", st)
	}
}

func TestMemoRDFallsThrough(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(64)
	p := graph.Path{0, 1, 2}
	rd, err := h.CostDistributionMemo(memo, p, 8*3600, QueryOptions{Method: MethodRD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := h.CostDistribution(p, 8*3600, QueryOptions{Method: MethodRD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Dist.Mean() != plain.Dist.Mean() {
		t.Fatalf("RD memoized mean %v != plain %v", rd.Dist.Mean(), plain.Dist.Mean())
	}
	if st := memo.Stats(); st.Entries != 0 {
		t.Fatalf("RD stored %d memo entries, want 0", st.Entries)
	}
}

func TestMemoExactDepartureKeys(t *testing.T) {
	// Two departures in one α-interval must not share an entry: a
	// state carries the exact departure's windows.
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(64)
	p := graph.Path{0, 1}
	opt := QueryOptions{Method: MethodOD}
	for _, depart := range []float64{8 * 3600, 8*3600 + 60} {
		memod, err := h.CostDistributionMemo(memo, p, depart, opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := h.CostDistribution(p, depart, opt)
		if err != nil {
			t.Fatal(err)
		}
		if memod.Dist.Mean() != plain.Dist.Mean() {
			t.Fatalf("depart %v: memo %v != plain %v", depart, memod.Dist.Mean(), plain.Dist.Mean())
		}
	}
	if st := memo.Stats(); st.Entries != 4 { // 2 departures × 2 prefixes
		t.Fatalf("entries = %d, want 4 (no aliasing between departures)", st.Entries)
	}
}

func TestMemoConcurrentSharedStates(t *testing.T) {
	// Many goroutines extend the same memoized prefix states; run
	// under -race this proves the states are safely shareable (the
	// multiply purity guarantee).
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(256)
	path := graph.Path{0, 1, 2, 3, 4}
	want, err := h.CostDistribution(path, 8*3600, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= len(path); n++ {
				res, err := h.CostDistributionMemo(memo, path[:n], 8*3600, QueryOptions{Method: MethodOD})
				if err != nil {
					errs <- err
					return
				}
				if n == len(path) && res.Dist.Mean() != want.Dist.Mean() {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = fmtError("memoized mean diverged under concurrency")

type fmtError string

func (e fmtError) Error() string { return string(e) }

// probeCounts is what a memo has counted.
type probeCounts struct {
	hits, misses uint64
	entries      int
}

func countsOf(m *ConvMemo) probeCounts {
	st := m.Stats()
	return probeCounts{hits: st.Hits, misses: st.Misses, entries: st.Entries}
}

// TestReuseOneProbe drives every query-level operation that reads the
// memo — the path-state evaluator, the cost distribution over it and
// the first segment of a partitioned query — twice (cold memo, then
// warm), and holds each to byte-identical answers against plain
// evaluation and to the exact probe counters: at most one hit or miss
// per logical query, however deep the prefix scan went.
func TestReuseOneProbe(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	dep := 8 * 3600.0
	opt := QueryOptions{Method: MethodOD}

	// Each operation answers with something comparable byte for byte.
	ops := map[string]func(m *ConvMemo) any{
		"path state": func(m *ConvMemo) any {
			st, err := h.pathState(context.Background(), m, full, dep, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			return distBuckets(t, st)
		},
		"cost distribution": func(m *ConvMemo) any {
			res, err := h.CostDistributionCtx(nil, m, full, dep, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Dist.Buckets()
		},
		"first segment": func(m *ConvMemo) any {
			res, err := h.EvaluateSegment(m, SegmentInput{Path: full, Depart: dep, UI: TimeInterval{Lo: dep, Hi: dep}, Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := res.State.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return enc
		},
	}

	// Cold, the scan finds nothing: one miss, and every prefix offered.
	// Warm, the memo holds the full path: one hit.
	want := [2]probeCounts{{misses: 1, entries: 5}, {hits: 1, misses: 1, entries: 5}}
	for opName, op := range ops {
		plain := op(nil)
		m := NewConvMemo(64)
		for pass, passName := range []string{"cold", "warm"} {
			if got := op(m); !reflect.DeepEqual(got, plain) {
				t.Errorf("%s / %s: answer differs from plain evaluation", opName, passName)
			}
			if got := countsOf(m); got != want[pass] {
				t.Errorf("%s / %s: counters %+v, want %+v", opName, passName, got, want[pass])
			}
		}
	}

	t.Run("RD bypasses both", func(t *testing.T) {
		// Neither the probe nor the offer runs for a method with no
		// chain evaluator.
		m := NewConvMemo(64)
		rd := QueryOptions{Method: MethodRD, Seed: 7}
		got, err := h.CostDistributionCtx(nil, m, full, dep, rd, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := h.CostDistribution(full, dep, rd)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Dist.Buckets(), plain.Dist.Buckets()) {
			t.Error("RD through a memo differs from plain RD")
		}
		if c := countsOf(m); c != (probeCounts{}) {
			t.Errorf("RD touched the memo: %+v", c)
		}
	})

	t.Run("epoch views are disjoint", func(t *testing.T) {
		base := NewConvMemo(64)
		e1, e2 := base.Fresh(), base.Fresh()
		s1, err := h.pathState(nil, e1, full, dep, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := h.pathState(nil, e2, full, dep, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s1 == s2 {
			t.Fatal("epoch 2 was answered with epoch 1's state")
		}
		// The memos share their counters, not their entries: two cold
		// misses, five entries each; each then hits its own entry.
		if c := countsOf(e2); c != (probeCounts{misses: 2, entries: 5}) {
			t.Fatalf("after one cold query per epoch: %+v", c)
		}
		for _, m := range []*ConvMemo{e1, e2} {
			again, err := h.pathState(nil, m, full, dep, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[*ConvMemo]*PathState{e1: s1, e2: s2}[m]; again != want {
				t.Error("a memo resumed from the other epoch's entry")
			}
		}
		// A publish starts a fresh memo: the next epoch reads none of
		// the previous epoch's entries.
		if s3, err := h.pathState(nil, e2.Fresh(), full, dep, opt, nil); err != nil || s3 == s2 {
			t.Errorf("the next epoch read the previous epoch's entry (err %v)", err)
		}
	})
}

func distBuckets(t *testing.T, st *PathState) []hist.Bucket {
	t.Helper()
	d, err := st.DistErr()
	if err != nil {
		t.Fatal(err)
	}
	return d.Buckets()
}
