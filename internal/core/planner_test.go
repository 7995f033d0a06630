package core

import (
	"context"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// plannerChain builds a hybrid graph over an nEdges-edge chain whose
// trajectories all traverse exactly the first covered edges, so every
// sub-path inside [0, covered) is answerable while any query touching
// edge covered or beyond fails at evaluation — the per-entry failure
// shape the planner must contain to the failing query's own subtree.
func plannerChain(t testing.TB, nEdges, covered int) *HybridGraph {
	t.Helper()
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= nEdges; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	for i := 0; i < nEdges; i++ {
		b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
	}
	g := b.Freeze()
	params := DefaultParams()
	params.Beta = 8
	var trajs []*gps.Matched
	for i := 0; i < 120; i++ {
		path := make(graph.Path, covered)
		costs := make([]float64, covered)
		for j := range path {
			path[j] = graph.EdgeID(j)
			costs[j] = 22 + float64((i+j)%9)
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path, Depart: 8*3600 + float64(i%5)*200, EdgeCosts: costs,
		})
	}
	h, err := Build(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// chainPath returns the path over edges [lo, lo+n).
func chainPath(lo, n int) graph.Path {
	p := make(graph.Path, n)
	for i := range p {
		p[i] = graph.EdgeID(lo + i)
	}
	return p
}

// checkPlannedMatchesIndependent asserts every planned entry
// reproduces the independent evaluation bit for bit.
func checkPlannedMatchesIndependent(t *testing.T, h *HybridGraph, queries []PlanQuery, out []PlanResult) {
	t.Helper()
	for i, q := range queries {
		ref, err := h.CostDistribution(q.Path, q.Depart, q.Opt)
		if (err != nil) != (out[i].Err != nil) {
			t.Fatalf("query %d (%v): independent err = %v, planned err = %v", i, q.Path, err, out[i].Err)
		}
		if err != nil {
			continue
		}
		if !identicalHist(ref.Dist, out[i].Res.Dist) {
			t.Fatalf("query %d (%v): planned result diverged from independent evaluation", i, q.Path)
		}
	}
}

// A prefix-heavy batch builds the expected trie: refcounts show up as
// SharedNodes, and every shared sub-path is convolved exactly once —
// Convolutions equals the distinct node count, not the step sum.
func TestPlannerSharedPrefixConvolvedOnce(t *testing.T) {
	h := plannerChain(t, 8, 8)
	depart := 8*3600 + 100.0
	queries := []PlanQuery{
		{Path: chainPath(0, 2), Depart: depart},
		{Path: chainPath(0, 3), Depart: depart},
		{Path: chainPath(0, 4), Depart: depart},
		{Path: chainPath(0, 4), Depart: depart}, // duplicate: same end node
	}
	bp := NewBatchPlanner(h, 4)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	checkPlannedMatchesIndependent(t, h, queries, out)

	// Trie: e0, e0-1, e0-1-2, e0-1-2-3. Every node is traversed by ≥ 2
	// queries, and independent evaluation would run 2+3+4+4 steps.
	if stats.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", stats.Nodes)
	}
	if stats.SharedNodes != 4 {
		t.Fatalf("SharedNodes = %d, want 4 (refcounts: 4,4,3,2)", stats.SharedNodes)
	}
	if stats.Convolutions != 4 {
		t.Fatalf("Convolutions = %d, want 4 — a shared sub-path was convolved more than once", stats.Convolutions)
	}
	if stats.ProbeHits != 0 {
		t.Fatalf("ProbeHits = %d, want 0 with no stores", stats.ProbeHits)
	}
	if stats.IndependentSteps != 13 {
		t.Fatalf("IndependentSteps = %d, want 13", stats.IndependentSteps)
	}
	if got := stats.SavedSteps(); got != 9 {
		t.Fatalf("SavedSteps = %d, want 9", got)
	}
	if stats.Queries != 4 || stats.Planned != 4 || stats.Fallback != 0 {
		t.Fatalf("Queries/Planned/Fallback = %d/%d/%d, want 4/4/0",
			stats.Queries, stats.Planned, stats.Fallback)
	}
}

// A single-query batch degrades to exactly today's path: one chain
// step per edge, nothing shared, nothing saved.
func TestPlannerSingleQueryDegrades(t *testing.T) {
	h := plannerChain(t, 8, 8)
	queries := []PlanQuery{{Path: chainPath(0, 5), Depart: 8 * 3600}}
	bp := NewBatchPlanner(h, 4)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	checkPlannedMatchesIndependent(t, h, queries, out)
	if stats.Nodes != 5 || stats.Convolutions != 5 || stats.IndependentSteps != 5 {
		t.Fatalf("Nodes/Convolutions/IndependentSteps = %d/%d/%d, want 5/5/5",
			stats.Nodes, stats.Convolutions, stats.IndependentSteps)
	}
	if stats.SharedNodes != 0 || stats.SavedSteps() != 0 {
		t.Fatalf("SharedNodes = %d, SavedSteps = %d, want 0/0",
			stats.SharedNodes, stats.SavedSteps())
	}
}

// A zero-overlap batch must not pay any planning overhead in chain
// steps: convolutions equal exactly what independent evaluation runs.
func TestPlannerZeroOverlapDegrades(t *testing.T) {
	h := plannerChain(t, 8, 8)
	depart := 8*3600 + 60.0
	queries := []PlanQuery{
		{Path: chainPath(0, 3), Depart: depart},
		{Path: chainPath(4, 3), Depart: depart},
	}
	bp := NewBatchPlanner(h, 4)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	checkPlannedMatchesIndependent(t, h, queries, out)
	if stats.Nodes != 6 || stats.Convolutions != 6 || stats.IndependentSteps != 6 {
		t.Fatalf("Nodes/Convolutions/IndependentSteps = %d/%d/%d, want 6/6/6",
			stats.Nodes, stats.Convolutions, stats.IndependentSteps)
	}
	if stats.SharedNodes != 0 || stats.SavedSteps() != 0 {
		t.Fatalf("SharedNodes = %d, SavedSteps = %d, want 0/0",
			stats.SharedNodes, stats.SavedSteps())
	}
}

// Different departures and methods must never share trie nodes: the
// exact-identity rule the memo keys enforce.
func TestPlannerGroupsByDepartureAndMethod(t *testing.T) {
	h := plannerChain(t, 8, 8)
	queries := []PlanQuery{
		{Path: chainPath(0, 3), Depart: 8 * 3600},
		{Path: chainPath(0, 3), Depart: 8*3600 + 1}, // own group: exact departure differs
		{Path: chainPath(0, 3), Depart: 8 * 3600, Opt: QueryOptions{Method: MethodLB}},
	}
	bp := NewBatchPlanner(h, 2)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	checkPlannedMatchesIndependent(t, h, queries, out)
	if stats.Nodes != 9 || stats.SharedNodes != 0 || stats.Convolutions != 9 {
		t.Fatalf("Nodes/SharedNodes/Convolutions = %d/%d/%d, want 9/0/9",
			stats.Nodes, stats.SharedNodes, stats.Convolutions)
	}
}

// The scheduler evaluates parents strictly before children whatever
// the worker count: a serial and a wide pool must agree bit for bit
// on a batch deep and branchy enough to interleave levels. (A
// dependency-order violation would read a nil parent state and panic;
// -race additionally checks the published states.)
func TestPlannerDependencyOrderAcrossWorkers(t *testing.T) {
	h := plannerChain(t, 10, 10)
	depart := 8*3600 + 30.0
	var queries []PlanQuery
	for n := 1; n <= 10; n++ {
		queries = append(queries, PlanQuery{Path: chainPath(0, n), Depart: depart})
	}
	for _, lo := range []int{2, 4, 6} {
		queries = append(queries, PlanQuery{Path: chainPath(lo, 4), Depart: depart})
	}
	serial, sstats := NewBatchPlanner(h, 1).Distributions(context.Background(), nil, queries)
	wide, wstats := NewBatchPlanner(h, 8).Distributions(context.Background(), nil, queries)
	for i := range queries {
		if serial[i].Err != nil || wide[i].Err != nil {
			t.Fatalf("query %d: serial err %v, wide err %v", i, serial[i].Err, wide[i].Err)
		}
		if !identicalHist(serial[i].Res.Dist, wide[i].Res.Dist) {
			t.Fatalf("query %d: worker pools disagree", i)
		}
	}
	if sstats != wstats {
		t.Fatalf("stats differ by worker count: serial %+v, wide %+v", sstats, wstats)
	}
	if sstats.Convolutions != sstats.Nodes {
		t.Fatalf("Convolutions = %d, Nodes = %d: a node was convolved twice or skipped",
			sstats.Convolutions, sstats.Nodes)
	}
	checkPlannedMatchesIndependent(t, h, queries, serial)
}

// A query whose evaluation fails must fail alone: the sub-paths it
// shares with valid queries evaluate normally, and only the failing
// node's own subtree inherits the error.
func TestPlannerErrorDoesNotPoisonSharedNodes(t *testing.T) {
	h := plannerChain(t, 8, 8)
	depart := 8*3600 + 100.0
	// Edge 0 does not follow edge 5, so this query fails its last
	// chain step — after sharing its first six trie nodes with the
	// valid queries (the /v1/batch shape: one unanswerable entry whose
	// prefixes belong to answerable ones).
	bad := append(chainPath(0, 6), graph.EdgeID(0))
	if _, err := h.CostDistribution(bad, depart, QueryOptions{}); err == nil {
		t.Fatal("fixture broke: the invalid-path query evaluates cleanly independently")
	}
	queries := []PlanQuery{
		{Path: bad, Depart: depart},             // fails at its seventh node, inserted first
		{Path: chainPath(0, 6), Depart: depart}, // ends at the failing node's parent
		{Path: chainPath(0, 3), Depart: depart}, // shares the root prefix
		{},                                      // empty path: per-entry error before the trie
	}
	bp := NewBatchPlanner(h, 4)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	if out[0].Err == nil {
		t.Fatal("invalid-path query succeeded under the planner")
	}
	if out[3].Err == nil {
		t.Fatal("empty path succeeded under the planner")
	}
	for _, i := range []int{1, 2} {
		if out[i].Err != nil {
			t.Fatalf("valid query %d poisoned by its neighbour's failure: %v", i, out[i].Err)
		}
	}
	checkPlannedMatchesIndependent(t, h, queries[:3], out[:3])
	// Six shared nodes convolved once; the seventh (failing) node ran
	// its chain step attempt but recorded no convolution.
	if stats.Nodes != 7 || stats.Convolutions != 6 {
		t.Fatalf("Nodes/Convolutions = %d/%d, want 7/6", stats.Nodes, stats.Convolutions)
	}
	if stats.Queries != 4 || stats.Planned != 3 {
		t.Fatalf("Queries/Planned = %d/%d, want 4/3 (the empty path never enters the trie)",
			stats.Queries, stats.Planned)
	}
}

// Methods without an incremental evaluator fall back to independent
// evaluation inside the same call, with identical results.
func TestPlannerFallbackForNonIncrementalMethods(t *testing.T) {
	h := plannerChain(t, 8, 8)
	depart := 8*3600 + 100.0
	queries := []PlanQuery{
		{Path: chainPath(0, 4), Depart: depart},
		{Path: chainPath(0, 4), Depart: depart, Opt: QueryOptions{Method: MethodRD, Seed: 42}},
		{Path: chainPath(0, 3), Depart: depart, Opt: QueryOptions{Method: MethodRD, Seed: 7}},
	}
	bp := NewBatchPlanner(h, 4)
	out, stats := bp.Distributions(context.Background(), nil, queries)
	checkPlannedMatchesIndependent(t, h, queries, out)
	if stats.Fallback != 2 || stats.Planned != 1 {
		t.Fatalf("Fallback/Planned = %d/%d, want 2/1", stats.Fallback, stats.Planned)
	}
	if stats.IndependentSteps != 4 {
		t.Fatalf("IndependentSteps = %d, want 4 (fallback queries are not planned steps)",
			stats.IndependentSteps)
	}
}

// A cancelled context surfaces per-entry, for trie and fallback
// entries alike, without evaluating anything.
func TestPlannerContextCancellation(t *testing.T) {
	h := plannerChain(t, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := []PlanQuery{
		{Path: chainPath(0, 4), Depart: 8 * 3600},
		{Path: chainPath(0, 2), Depart: 8 * 3600, Opt: QueryOptions{Method: MethodRD}},
	}
	out, stats := NewBatchPlanner(h, 2).Distributions(ctx, nil, queries)
	for i := range out {
		if out[i].Err == nil {
			t.Fatalf("entry %d evaluated under a cancelled context", i)
		}
	}
	if stats.Convolutions != 0 {
		t.Fatalf("Convolutions = %d after cancellation, want 0", stats.Convolutions)
	}
}

// The memo is a first-class probe target: a second planned batch over
// the same queries answers every node from the memo with zero new
// convolutions, and a warm synopsis does the same from boot.
func TestPlannerProbesMemoAndSynopsis(t *testing.T) {
	h := plannerChain(t, 8, 8)
	depart := 8*3600 + 100.0
	var queries []PlanQuery
	for n := 2; n <= 6; n++ {
		queries = append(queries, PlanQuery{Path: chainPath(0, n), Depart: depart})
	}
	bp := NewBatchPlanner(h, 4)

	memo := NewConvMemo(256)
	cold, cstats := bp.Distributions(context.Background(), NewReuse(nil, memo), queries)
	warm, wstats := bp.Distributions(context.Background(), NewReuse(nil, memo), queries)
	if cstats.Convolutions != cstats.Nodes || cstats.ProbeHits != 0 {
		t.Fatalf("cold pass: Convolutions/ProbeHits = %d/%d, want %d/0",
			cstats.Convolutions, cstats.ProbeHits, cstats.Nodes)
	}
	if wstats.Convolutions != 0 || wstats.ProbeHits != wstats.Nodes {
		t.Fatalf("warm pass: Convolutions/ProbeHits = %d/%d, want 0/%d",
			wstats.Convolutions, wstats.ProbeHits, wstats.Nodes)
	}
	for i := range queries {
		if cold[i].Err != nil || warm[i].Err != nil {
			t.Fatalf("query %d errored: cold %v, warm %v", i, cold[i].Err, warm[i].Err)
		}
		if !identicalHist(cold[i].Res.Dist, warm[i].Res.Dist) {
			t.Fatalf("query %d: memo-served plan diverged", i)
		}
	}

	var workload []WorkloadQuery
	for _, q := range queries {
		workload = append(workload, WorkloadQuery{Path: q.Path, Depart: q.Depart})
	}
	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	out, sstats := bp.Distributions(context.Background(), NewReuse(syn, nil), queries)
	if sstats.ProbeHits == 0 {
		t.Fatalf("synopsis never hit: %+v", sstats)
	}
	for i := range queries {
		if out[i].Err != nil {
			t.Fatal(out[i].Err)
		}
		if !identicalHist(cold[i].Res.Dist, out[i].Res.Dist) {
			t.Fatalf("query %d: synopsis-served plan diverged", i)
		}
	}
}
