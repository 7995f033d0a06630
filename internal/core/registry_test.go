package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// registryBatch is n trajectories down the braid that take edge
// 2s+pattern[s%len(pattern)] at step s — mostly the unpopular edges —
// all arriving in the 08:00 interval of one day, so that a batch of β
// of them instantiates paths the base model lacks and rebuilds rank-1
// variables it holds.
func registryBatch(g *graph.Graph, id0 int64, n int, pattern []graph.EdgeID) []*gps.Matched {
	rnd := rand.New(rand.NewSource(id0))
	steps := g.NumEdges() / 2
	out := make([]*gps.Matched, n)
	for i := range out {
		start := i % (steps - 2)
		span := min(4, steps-start)
		m := &gps.Matched{ID: id0 + int64(i), Depart: 8*3600 + rnd.Float64()*600}
		for s := start; s < start+span; s++ {
			m.Path = append(m.Path, graph.EdgeID(2*s)+pattern[s%len(pattern)])
			m.EdgeCosts = append(m.EdgeCosts, 30+rnd.Float64()*15)
		}
		out[i] = m
	}
	return out
}

// registryAnswers prints, for every path and method, the decomposition
// and the bits of the answer at 08:05: what a byStart row or a pathVars
// shared by mistake between two graphs would change.
func registryAnswers(h *HybridGraph, paths []graph.Path) string {
	var b bytes.Buffer
	for _, p := range paths {
		for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
			res, err := h.CostDistribution(p, 8*3600+300, QueryOptions{Method: m})
			if err != nil {
				fmt.Fprintf(&b, "%v %s: %v\n", p, m, err)
				continue
			}
			fmt.Fprintf(&b, "%v %s:", p, m)
			for _, v := range res.Decomp.Vars {
				fmt.Fprintf(&b, " %s@%d", v.Path.Key(), v.Interval)
			}
			fmt.Fprintf(&b, " %s\n", distHash(res.Dist))
		}
	}
	return b.String()
}

func writeModelBytes(t *testing.T, h *HybridGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDerivedEpochsShareNothingWritable derives two exact children of
// one parent, then two decay children, and holds every graph to what
// it was: put copies a pathVars or a byStart list the graph shares with
// its parent before writing it, so neither the parent nor a sibling
// derived earlier moves — its model bytes and its answers — and each
// exact child is a cold Build of its data.
func TestDerivedEpochsShareNothingWritable(t *testing.T) {
	g, data, params := braidWorkload(5)
	parent, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]*gps.Matched{
		registryBatch(g, 1_000_000, 4*params.Beta, []graph.EdgeID{1}),
		registryBatch(g, 2_000_000, 4*params.Beta, []graph.EdgeID{1, 0}),
	}
	rnd := rand.New(rand.NewSource(44))
	var paths []graph.Path
	for _, batch := range batches {
		for _, m := range batch[:g.NumEdges()/2] {
			paths = append(paths, m.Path)
		}
	}
	for range 30 {
		paths = append(paths, randomPath(rnd, g, 6))
	}

	exact := deriveSiblings(t, "exact", parent, batches, paths, func(b []*gps.Matched) (*HybridGraph, EpochDelta, error) {
		child, _, delta, err := parent.ApplyBatchExact(data, b)
		return child, delta, err
	})
	for i, batch := range batches {
		cold, err := Build(g, data.Extend(batch, 0), params)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(writeModelBytes(t, exact[i]), writeModelBytes(t, cold)) {
			t.Fatalf("exact child %d is not the cold Build of its data", i)
		}
		if got, want := registryAnswers(exact[i], paths), registryAnswers(cold, paths); got != want {
			t.Fatalf("exact child %d answers unlike the cold Build of its data:\n%s", i, firstDiff(got, want))
		}
	}
	deriveSiblings(t, "decay", parent, batches, paths, func(b []*gps.Matched) (*HybridGraph, EpochDelta, error) {
		return parent.ApplyBatchDecay(b, 0.5)
	})
	// A trained model's rank-1 path is put first, and its copy copies
	// its row. Without the rank-1 path of the trunk's second edge, whose
	// row still holds a path onto every arm, a batch along that edge
	// only appends to a row the parent holds.
	g, data, params = forkFixture(t, 5)
	fork, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	fork = fork.FilterVariables(func(v *Variable) bool { return v.Rank() > 1 || v.Path[0] != 1 })
	paths = []graph.Path{{1}, {0, 1}, {1, 2}, {0, 1, 4}}
	alongEdge1 := func(id0 int64, cost float64) []*gps.Matched {
		batch := make([]*gps.Matched, 2*params.Beta)
		for i := range batch {
			batch[i] = &gps.Matched{
				ID: id0 + int64(i), Path: graph.Path{1},
				Depart: 8*3600 + float64(i), EdgeCosts: []float64{cost + float64(i%5)},
			}
		}
		return batch
	}
	deriveSiblings(t, "decay without a rank-1 path", fork, [][]*gps.Matched{
		alongEdge1(3_000_000, 30), alongEdge1(4_000_000, 90),
	}, paths, func(b []*gps.Matched) (*HybridGraph, EpochDelta, error) {
		return fork.ApplyBatchDecay(b, 0.5)
	})
}

// deriveSiblings derives one child of parent per batch and checks,
// after each, that the parent and every sibling derived before answer
// and serialize as they did.
func deriveSiblings(t *testing.T, what string, parent *HybridGraph, batches [][]*gps.Matched, paths []graph.Path, derive func([]*gps.Matched) (*HybridGraph, EpochDelta, error)) []*HybridGraph {
	t.Helper()
	graphs := []*HybridGraph{parent}
	models, answers := [][]byte{writeModelBytes(t, parent)}, []string{registryAnswers(parent, paths)}
	for i, batch := range batches {
		child, delta, err := derive(batch)
		if err != nil {
			t.Fatal(err)
		}
		if delta.NewVars == 0 {
			t.Fatalf("%s child %d: %+v, want new variables", what, i, delta)
		}
		graphs = append(graphs, child)
		models, answers = append(models, writeModelBytes(t, child)), append(answers, registryAnswers(child, paths))
		for j, h := range graphs[:i+1] {
			name := "the parent"
			if j > 0 {
				name = fmt.Sprintf("child %d", j-1)
			}
			if !bytes.Equal(writeModelBytes(t, h), models[j]) {
				t.Fatalf("%s: %s's model moved when child %d was derived", what, name, i)
			}
			if got := registryAnswers(h, paths); got != answers[j] {
				t.Fatalf("%s: %s's answers moved when child %d was derived:\n%s", what, name, i, firstDiff(got, answers[j]))
			}
		}
	}
	return graphs[1:]
}

// firstDiff returns the first line at which two answer listings part.
func firstDiff(got, want string) string {
	gl, wl := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf(" got %s\nwant %s", gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// TestOneFallbackPerEdge: eight goroutines take the first use of every
// edge's speed-limit fallback on a fresh model at once, each walking
// the edges from its own offset, and all get one variable per edge; an
// exact and a decay epoch derived from that model return the same
// variables, so no publish builds a fallback again.
func TestOneFallbackPerEdge(t *testing.T) {
	g, data, params := braidWorkload(5)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumEdges()
	for e := range n {
		if h.fallbacks[e].Load() != nil {
			t.Fatalf("edge %d's fallback is built before any query", e)
		}
	}
	const workers = 8
	got := make([][]*Variable, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]*Variable, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range n {
				e := (w*n/workers + i) % n
				got[w][e] = h.fallbackVariable(graph.EdgeID(e))
			}
		}()
	}
	close(start)
	wg.Wait()
	for e := range n {
		v := got[0][e]
		if !v.SpeedLimit || v.ID() != fallbackID(graph.EdgeID(e)) || h.fallbacks[e].Load() != v {
			t.Fatalf("edge %d's fallback %p (id %d) is not the one in its slot", e, v, v.ID())
		}
		for w := 1; w < workers; w++ {
			if got[w][e] != v {
				t.Fatalf("edge %d: goroutines 0 and %d got different fallbacks", e, w)
			}
		}
	}

	batch := registryBatch(g, 1_000_000, 4*params.Beta, []graph.EdgeID{1})
	exact, _, _, err := h.ApplyBatchExact(data, batch)
	if err != nil {
		t.Fatal(err)
	}
	decay, _, err := h.ApplyBatchDecay(batch, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for e := range n {
		if exact.fallbackVariable(graph.EdgeID(e)) != got[0][e] || decay.fallbackVariable(graph.EdgeID(e)) != got[0][e] {
			t.Fatalf("edge %d: a derived epoch built its own fallback", e)
		}
	}
}

// TestModelBytesAnyRowOrder: a model file lists its variables by path
// key, then interval, whatever order put left a candidate row in — for
// a trained model and for an epoch derived from it, whose rows mix the
// parent's records with its own.
func TestModelBytesAnyRowOrder(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	// β trajectories along <e1..e4> at 17:00 add paths and intervals to
	// rows the parent holds.
	batch := make([]*gps.Matched, 2*params.Beta)
	for i := range batch {
		batch[i] = &gps.Matched{
			ID: 1_000_000 + int64(i), Path: graph.Path{1, 2, 3, 4},
			Depart: 17*3600 + float64(i), EdgeCosts: []float64{30, 31 + float64(i%4), 29, 32},
		}
	}
	child, _, delta, err := h.ApplyBatchExact(data, batch)
	if err != nil {
		t.Fatal(err)
	}
	if delta.NewVars == 0 {
		t.Fatalf("%+v, want new variables", delta)
	}
	for _, m := range []struct {
		what string
		h    *HybridGraph
	}{{"trained", h}, {"derived", child}} {
		before := writeModelBytes(t, m.h)
		m.h.ReverseRows()
		if !bytes.Equal(writeModelBytes(t, m.h), before) {
			t.Fatalf("the %s model's file changed with its rows' order", m.what)
		}
	}
}
