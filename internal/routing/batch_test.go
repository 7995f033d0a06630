package routing

import (
	"testing"

	"repro/internal/core"
)

// Frontier batching is an execution strategy, not an approximation:
// with BatchWorkers set, eligible sibling extensions of each DFS node
// are pre-evaluated on the planner pool, but the search must visit,
// prune, count and rank exactly as the sequential walk does.

func TestBestPathFrontierBatchIdentical(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}
		seq, err := r.BestPath(q, Options{Method: m, Incremental: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		bat, err := r.BestPath(q, Options{Method: m, Incremental: true, BatchWorkers: 4})
		if err != nil {
			t.Fatalf("%s batched: %v", m, err)
		}
		if seq.Path.Key() != bat.Path.Key() {
			t.Fatalf("%s: batched search chose %v, sequential %v", m, bat.Path, seq.Path)
		}
		if seq.Prob != bat.Prob {
			t.Fatalf("%s: batched prob %v != sequential %v", m, bat.Prob, seq.Prob)
		}
		if seq.Explored != bat.Explored {
			t.Fatalf("%s: batched explored %d nodes, sequential %d — the frontier batch changed the walk",
				m, bat.Explored, seq.Explored)
		}
	}
}

func TestTopKFrontierBatchIdentical(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}
	seq, err := r.TopKPaths(q, 3, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := r.TopKPaths(q, 3, Options{Incremental: true, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(bat) {
		t.Fatalf("batched returned %d paths, sequential %d", len(bat), len(seq))
	}
	for i := range seq {
		if seq[i].Path.Key() != bat[i].Path.Key() || seq[i].Prob != bat[i].Prob {
			t.Fatalf("rank %d: batched (%v, %v) != sequential (%v, %v)",
				i, bat[i].Path, bat[i].Prob, seq[i].Path, seq[i].Prob)
		}
	}
}

func TestSkylineFrontierBatchIdentical(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(h)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}
	seq, err := r.SkylinePaths(q, 8, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := r.SkylinePaths(q, 8, Options{Incremental: true, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(bat) {
		t.Fatalf("batched skyline has %d paths, sequential %d", len(bat), len(seq))
	}
	for i := range seq {
		if seq[i].Path.Key() != bat[i].Path.Key() || seq[i].Prob != bat[i].Prob {
			t.Fatalf("skyline entry %d diverged under frontier batching", i)
		}
	}
}

// Batching composes with the router memo: a warm memo plus a worker
// pool must still reproduce the cold sequential answer exactly.
func TestFrontierBatchWithMemoIdentical(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5}

	cold := New(h)
	seq, err := cold.BestPath(q, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	warm := New(h)
	memo := core.NewConvMemo(1 << 12)
	warm.SetReuse(core.NewReuse(nil, memo))
	for pass := 0; pass < 2; pass++ {
		bat, err := warm.BestPath(q, Options{Incremental: true, BatchWorkers: 4})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if seq.Path.Key() != bat.Path.Key() || seq.Prob != bat.Prob || seq.Explored != bat.Explored {
			t.Fatalf("pass %d: memoized batched search diverged from cold sequential", pass)
		}
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatal("second pass never hit the memo")
	}
}
