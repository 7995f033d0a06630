package core

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// TestIncrementalMatchesBatch extends a path edge by edge and checks
// that each incremental distribution matches the batch computation.
func TestIncrementalMatchesBatch(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	depart := 8*3600 + 300.0
	for _, method := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: method}
		st, err := h.StartPath(0, depart, opt, nil)
		if err != nil {
			t.Fatalf("%s: start: %v", method, err)
		}
		for _, e := range []graph.EdgeID{1, 2, 3, 4} {
			st, err = h.ExtendPath(st, e)
			if err != nil {
				t.Fatalf("%s: extend by %d: %v", method, e, err)
			}
			batch, err := h.CostDistribution(st.Path(), depart, opt)
			if err != nil {
				t.Fatalf("%s: batch: %v", method, err)
			}
			im, bm := st.Dist().Mean(), batch.Dist.Mean()
			if math.Abs(im-bm) > 0.02*bm+0.5 {
				t.Fatalf("%s at %v: incremental mean %v vs batch %v",
					method, st.Path(), im, bm)
			}
			for _, q := range []float64{0.25, 0.5, 0.75} {
				x := batch.Dist.Quantile(q)
				if d := math.Abs(st.Dist().CDF(x) - batch.Dist.CDF(x)); d > 0.1 {
					t.Fatalf("%s at %v: CDF differs by %v at %v", method, st.Path(), d, x)
				}
			}
		}
	}
}

func TestIncrementalParentRemainsUsable(t *testing.T) {
	// DFS keeps the parent alive and extends it along multiple
	// branches; extending must not corrupt the parent.
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	depart := 8*3600 + 300.0
	st, err := h.StartPath(0, depart, QueryOptions{Method: MethodOD}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err = h.ExtendPath(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	meanBefore := st.Dist().Mean()
	if _, err := h.ExtendPath(st, 2); err != nil {
		t.Fatal(err)
	}
	// Extend the same parent again (sibling exploration).
	child2, err := h.ExtendPath(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dist().Mean() != meanBefore {
		t.Fatal("parent state mutated by extension")
	}
	if len(child2.Path()) != 3 {
		t.Fatal("extension path wrong")
	}
	// The same along real siblings, concurrently (meaningful under -race).
	extendSiblingsConcurrently(t)
}

func TestIncrementalRejectsBadExtension(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.StartPath(0, 8*3600, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ExtendPath(st, 3); err == nil {
		t.Fatal("non-adjacent extension accepted")
	}
	if _, err := h.StartPath(0, 8*3600, QueryOptions{Method: MethodRD}, nil); err == nil {
		t.Fatal("RD should not support incremental evaluation")
	}
}
