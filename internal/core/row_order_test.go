package core_test

import (
	"fmt"
	"strings"
	"testing"

	pathcost "repro"
	"repro/internal/core"
	"repro/internal/shard"
)

// TestEquivalenceDecompositionsAnyRowOrder: every decomposition of the
// sharded tier's equivalence suite — each path on the trained model, on
// the union of each split and on every shard of it, under every method,
// at the suite's departure and three more — and its answer stay the
// same when every candidate row's paths are reversed. put keeps a row in insertion order, which differs between a
// trained and a loaded model, and buildCandidateArrayFrom alone orders
// the row it builds.
func TestEquivalenceDecompositionsAnyRowOrder(t *testing.T) {
	sys := equivalenceSystem(t)
	type model struct {
		name  string
		h     *core.HybridGraph
		paths []pathcost.Path
	}
	var models []model
	for _, k := range []int{2, 3, 4} {
		part, err := shard.NewPartition(sys.Graph, k, sys.Params)
		if err != nil {
			t.Fatal(err)
		}
		split, err := shard.SplitModel(sys, part)
		if err != nil {
			t.Fatal(err)
		}
		paths := equivalencePaths(t, sys, k)
		models = append(models,
			model{fmt.Sprintf("k=%d trained", k), sys.Hybrid(), paths},
			model{fmt.Sprintf("k=%d union", k), split.Union.Hybrid(), paths})
		for r, s := range split.Shards {
			models = append(models, model{fmt.Sprintf("k=%d shard %d", k, r), s.Hybrid(), paths})
		}
	}
	// The suite departs at 08:00, where few of its paths have a variable
	// of rank 2 or more; three more departures add many.
	departs := []float64{relayDepart, 7.5 * 3600, 12 * 3600, 17.5 * 3600}
	describe := func(m model) string {
		var b strings.Builder
		for i, p := range m.paths {
			for _, at := range departs {
				for _, method := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB, core.MethodRD} {
					res, err := m.h.CostDistribution(p, at, core.QueryOptions{Method: method, Seed: 3})
					fmt.Fprintf(&b, "%s path %d at %v %s:", m.name, i, at, method)
					if err != nil {
						fmt.Fprintf(&b, " %v\n", err)
						continue
					}
					for _, v := range res.Decomp.Vars {
						fmt.Fprintf(&b, " %s@%d", v.Path.Key(), v.Interval)
					}
					fmt.Fprintf(&b, " %v\n", res.Dist.Buckets())
				}
			}
		}
		return b.String()
	}
	before := make([]string, len(models))
	for i, m := range models {
		before[i] = describe(m)
	}
	reversed := make(map[*core.HybridGraph]bool)
	for _, m := range models {
		if !reversed[m.h] {
			m.h.ReverseRows()
			reversed[m.h] = true
		}
	}
	for i, m := range models {
		if got := describe(m); got != before[i] {
			t.Fatalf("%s: reversing the candidate rows moved a decomposition or an answer", m.name)
		}
	}
}
