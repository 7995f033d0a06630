package shard

import (
	"bytes"
	"fmt"

	pathcost "repro"
	"repro/internal/core"
)

// SplitResult is a model split by region: Shards[r] serves region r,
// and Union is the reference model a single process would serve — the
// disjoint union of every shard's variables. Cross-region variables
// appear in neither: a variable whose path crosses a region cut
// cannot live on any one shard, so the sharded deployment's promise
// is byte-identity with a single process serving Union, not with the
// unsplit original. The splitter reports how many variables the cuts
// cost so operators can judge a partition before deploying it.
type SplitResult struct {
	Shards []*pathcost.System
	Union  *pathcost.System
	// Dropped counts variables whose path crossed a region cut.
	Dropped int
}

// SplitModel cuts sys's trained model along part. Each output system
// is built by serializing the filtered model and loading it back — the exact loader path a shard daemon takes with a model
// file — so a split-in-process system and a shard booted from a
// written file behave identically, byte for byte.
func SplitModel(sys *pathcost.System, part *Partition) (*SplitResult, error) {
	g := sys.Graph
	if len(part.Vertex) != g.NumVertices() {
		return nil, fmt.Errorf("shard: partition is for %d vertices, network has %d", len(part.Vertex), g.NumVertices())
	}
	h := sys.Hybrid()

	total := 0
	h.ForEachVariable(func(*core.Variable) { total++ })

	res := &SplitResult{Shards: make([]*pathcost.System, part.K)}
	kept := 0
	for r := 0; r < part.K; r++ {
		region := r
		fh := h.FilterVariables(func(v *core.Variable) bool {
			vr, ok := part.PathInRegion(g, v.Path)
			return ok && vr == region
		})
		shardSys, err := roundTrip(g, fh)
		if err != nil {
			return nil, fmt.Errorf("shard: building region %d: %w", r, err)
		}
		res.Shards[r] = shardSys
		shardSys.Hybrid().ForEachVariable(func(*core.Variable) { kept++ })
	}

	uh := h.FilterVariables(func(v *core.Variable) bool {
		_, ok := part.PathInRegion(g, v.Path)
		return ok
	})
	union, err := roundTrip(g, uh)
	if err != nil {
		return nil, fmt.Errorf("shard: building union model: %w", err)
	}
	res.Union = union
	res.Dropped = total - kept
	return res, nil
}

// roundTrip serializes a filtered model and loads it back through the
// standard loader, yielding a fresh System with loader-identical
// in-memory state.
func roundTrip(g *pathcost.Graph, h *core.HybridGraph) (*pathcost.System, error) {
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		return nil, err
	}
	return pathcost.LoadSystem(g, nil, &buf)
}
