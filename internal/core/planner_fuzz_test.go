package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// FuzzBatchPlanner is a differential fuzz target over raw batch
// decompositions: arbitrary bytes decode into a batch of chain
// queries — overlapping, duplicated, invalid, mixed-method — and the
// planned answers must match independent evaluation entry for entry,
// bit for bit, without panicking and without breaking the planner's
// accounting invariants. A shared memo persists across executions so
// later inputs also exercise the probe path against states planned by
// earlier ones.

const fuzzChainEdges = 10

var (
	fuzzPlanOnce sync.Once
	fuzzPlanH    *HybridGraph
	fuzzPlanErr  error
	fuzzPlanMemo = NewConvMemo(1 << 12)
)

func fuzzPlannerFixture(t testing.TB) *HybridGraph {
	t.Helper()
	fuzzPlanOnce.Do(func() {
		b := graph.NewBuilder()
		var vs []graph.VertexID
		for i := 0; i <= fuzzChainEdges; i++ {
			vs = append(vs, b.AddVertex(pointAt(i)))
		}
		for i := 0; i < fuzzChainEdges; i++ {
			b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
		}
		g := b.Freeze()
		params := DefaultParams()
		params.Beta = 8
		var trajs []*gps.Matched
		for i := 0; i < 120; i++ {
			path := make(graph.Path, fuzzChainEdges)
			costs := make([]float64, fuzzChainEdges)
			for j := range path {
				path[j] = graph.EdgeID(j)
				costs[j] = 22 + float64((i+j)%9)
			}
			trajs = append(trajs, &gps.Matched{
				ID: int64(i), Path: path, Depart: 8*3600 + float64(i%5)*200, EdgeCosts: costs,
			})
		}
		fuzzPlanH, fuzzPlanErr = Build(g, gps.NewCollection(trajs, 0), params)
	})
	if fuzzPlanErr != nil {
		t.Fatal(fuzzPlanErr)
	}
	return fuzzPlanH
}

// decodePlanBatch turns raw bytes into a batch: three bytes per query
// select a chain segment, a method, a departure, and whether to break
// the path's validity by repeating its first edge at the end.
func decodePlanBatch(data []byte) []PlanQuery {
	methods := []Method{MethodOD, MethodHP, MethodLB, MethodRD}
	var queries []PlanQuery
	for i := 0; i+2 < len(data) && len(queries) < 12; i += 3 {
		start := int(data[i]) % fuzzChainEdges
		n := 1 + int(data[i+1])%8
		if start+n > fuzzChainEdges {
			n = fuzzChainEdges - start
		}
		p := chainPath(start, n)
		v := data[i+2]
		if v&0x80 != 0 {
			// Edge p[0] never follows the segment's last edge, so the
			// query fails its final chain step after sharing every
			// earlier trie node with its valid neighbours.
			p = append(p, p[0])
		}
		queries = append(queries, PlanQuery{
			Path:   p,
			Depart: 8*3600 + float64((v>>2)&0x1f)*100,
			Opt:    QueryOptions{Method: methods[v&3], Seed: 1},
		})
	}
	return queries
}

func FuzzBatchPlanner(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0, 5, 0, 0, 3, 0, 0, 1, 0})     // prefix ladder from edge 0
	f.Add([]byte{0, 7, 0x80, 0, 7, 0, 0, 4, 0})           // invalid entry sharing a valid trunk
	f.Add([]byte{0, 7, 0, 0, 7, 1, 0, 7, 2, 0, 7, 3})     // same path, all four methods
	f.Add([]byte{2, 5, 8, 2, 5, 8, 2, 3, 40, 5, 4, 0x84}) // duplicates + depart spread + invalid
	f.Add([]byte{9, 1, 0, 0, 9, 0})                       // single-edge tail and full chain
	f.Add([]byte{1, 2})                                   // too short: empty batch
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fuzzPlannerFixture(t)
		queries := decodePlanBatch(data)
		if len(queries) == 0 {
			return
		}
		bp := NewBatchPlanner(h, 4)
		out, stats := bp.Distributions(context.Background(), NewReuse(nil, fuzzPlanMemo), queries)
		if len(out) != len(queries) {
			t.Fatalf("%d results for %d queries", len(out), len(queries))
		}
		checkPlannedMatchesIndependent(t, h, queries, out)
		if stats.Planned+stats.Fallback != stats.Queries {
			t.Fatalf("planned %d + fallback %d != queries %d",
				stats.Planned, stats.Fallback, stats.Queries)
		}
		if stats.Convolutions+stats.ProbeHits > stats.Nodes {
			t.Fatalf("%d convolutions + %d probe hits exceed %d trie nodes",
				stats.Convolutions, stats.ProbeHits, stats.Nodes)
		}
	})
}
