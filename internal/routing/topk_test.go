package routing

import (
	"testing"

	"repro/internal/core"
)

func TestTopKPaths(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}
	res, err := r.TopKPaths(q, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 3 {
		t.Fatalf("got %d results", len(res))
	}
	seen := make(map[string]bool)
	for i, tk := range res {
		if !g.ValidPath(tk.Path) {
			t.Fatalf("result %d invalid", i)
		}
		if from, to := endpoints(g, tk.Path); from != src || to != dst {
			t.Fatalf("result %d wrong endpoints", i)
		}
		if seen[tk.Path.Key()] {
			t.Fatalf("duplicate path in top-k")
		}
		seen[tk.Path.Key()] = true
		if i > 0 && tk.Prob > res[i-1].Prob+1e-9 {
			t.Fatalf("results not sorted by probability: %v then %v", res[i-1].Prob, tk.Prob)
		}
		if tk.Prob < 0 || tk.Prob > 1 {
			t.Fatalf("prob %v out of range", tk.Prob)
		}
	}
}

func TestTopKConsistentWithBestPath(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2}
	best, err := r.BestPath(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	topk, err := r.TopKPaths(q, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Top-1 of top-k must be at least as good as BestPath's result
	// (both explore with the same bound; ties can differ slightly due
	// to pruning thresholds).
	if topk[0].Prob < best.Prob-0.05 {
		t.Fatalf("top-1 prob %v much worse than best-path %v", topk[0].Prob, best.Prob)
	}
}

func TestTopKErrors(t *testing.T) {
	_, h := hybridFixture(t)
	r := New(h)
	if _, err := r.TopKPaths(Query{Source: 1, Dest: 2, Budget: 100}, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := r.TopKPaths(Query{Source: 1, Dest: 1, Budget: 100}, 2, Options{}); err == nil {
		t.Fatal("source == dest accepted")
	}
}

func TestTopKMethodsRun(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.2}
	for _, m := range []core.Method{core.MethodOD, core.MethodLB} {
		if _, err := r.TopKPaths(q, 2, Options{Method: m}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestSkylinePaths(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}
	sky, err := r.SkylinePaths(q, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	// No skyline member may be strictly dominated by another.
	for i, a := range sky {
		for j, b := range sky {
			if i == j {
				continue
			}
			if b.Dist.Dominates(a.Dist) && !a.Dist.Dominates(b.Dist) {
				t.Fatalf("skyline member %d dominated by %d", i, j)
			}
		}
		if !g.ValidPath(a.Path) {
			t.Fatalf("skyline path %d invalid", i)
		}
	}
	if _, err := r.SkylinePaths(q, 0, Options{}); err == nil {
		t.Fatal("maxCandidates=0 accepted")
	}
}
