package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// cityFixture trains the default parameters on the test-preset city
// with trips trajectories generated from seed.
func cityFixture(t testing.TB, seed int64, trips int) (*HybridGraph, *gps.Collection) {
	t.Helper()
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	data := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{Seed: seed, NumTrips: trips}).Generate().Collection
	h, err := Build(g, data, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return h, data
}

// decompositionIdentity names a decomposition by what an answer is a
// function of: each factor's position and variable id.
func decompositionIdentity(de *Decomposition) string {
	var b strings.Builder
	for i, v := range de.Vars {
		fmt.Fprintf(&b, "%d:%d,", de.Pos[i], v.ID())
	}
	return b.String()
}

// TestExactPublishRenamesExactlyTheRebuiltVariables: an exact publish
// gives a new id to every variable EpochDelta counts as rebuilt or
// new, and to no other; a kept id is the same variable, the parent
// epoch keeps every id it had, and a fallback's id is its edge's in
// every epoch.
func TestExactPublishRenamesExactlyTheRebuiltVariables(t *testing.T) {
	h, data := cityFixture(t, 1, 8000)
	type slot struct {
		key string
		iv  int
	}
	before := make(map[slot]uint64)
	ids := make(map[uint64]bool)
	h.ForEachVariable(func(v *Variable) {
		if v.ID() == 0 || v.ID()%2 != 0 || ids[v.ID()] {
			t.Fatalf("variable %v@%d has id %d: want a unique even id", v.Path, v.Interval, v.ID())
		}
		ids[v.ID()] = true
		before[slot{v.Path.Key(), v.Interval}] = v.ID()
	})

	fresh := trajgen.New(h.G, traffic.NewModel(traffic.Config{}), trajgen.Config{Seed: 2, NumTrips: 128}).Generate().Collection
	batch := make([]*gps.Matched, fresh.Len())
	for i := range batch {
		batch[i] = fresh.Traj(i)
		batch[i].ID += 1 << 32 // clear of the training collection's ids
	}
	nh, _, delta, err := h.ApplyBatchExact(data, batch)
	if err != nil {
		t.Fatal(err)
	}
	renamed, kept := 0, 0
	nh.ForEachVariable(func(v *Variable) {
		old, had := before[slot{v.Path.Key(), v.Interval}]
		switch {
		case had && old == v.ID():
			if h.LookupInterval(v.Path, v.Interval) != v {
				t.Fatalf("%v@%d kept id %d but is another variable", v.Path, v.Interval, old)
			}
			kept++
		case ids[v.ID()] || v.ID()%2 != 0:
			t.Fatalf("%v@%d has id %d, which is odd or named another variable before the publish", v.Path, v.Interval, v.ID())
		default:
			renamed++
		}
	})
	if want := delta.RebuiltVars + delta.NewVars; renamed != want || delta.RebuiltVars == 0 || kept == 0 {
		t.Fatalf("%d variables have new ids and %d kept theirs; the delta counts %d rebuilt and %d new",
			renamed, kept, delta.RebuiltVars, delta.NewVars)
	}
	h.ForEachVariable(func(v *Variable) {
		if before[slot{v.Path.Key(), v.Interval}] != v.ID() {
			t.Fatalf("the publish renamed the parent epoch's %v@%d", v.Path, v.Interval)
		}
	})
	for _, e := range []graph.EdgeID{0, 7, graph.EdgeID(h.G.NumEdges() - 1)} {
		a, b := h.fallbackVariable(e), nh.fallbackVariable(e)
		if a == b || a.ID() != b.ID() || a.ID() != fallbackID(e) || a.ID()%2 != 1 {
			t.Fatalf("edge %d's fallbacks have ids %d and %d, want %d in both epochs", e, a.ID(), b.ID(), fallbackID(e))
		}
	}
	t.Logf("%d of %d variables renamed (%d rebuilt, %d new)", renamed, renamed+kept, delta.RebuiltVars, delta.NewVars)
}

// TestEqualDecompositionsEqualAnswers: within a (path, method), two
// departures whose decompositions have equal ids at equal positions
// have byte-identical answers — the departure reaches the estimate
// only through the variables Eq. 3's chain picks. Every minute of two
// α-intervals, over several cities and all four methods, evaluated in
// turn without reuse and through a shared memo, each with the
// decomposition chosen by the evaluation or handed to it in storage
// the next departure reuses.
func TestEqualDecompositionsEqualAnswers(t *testing.T) {
	groups, shared, moved := 0, 0, 0
	var scratch Decomposition
	for _, seed := range []int64{1, 2, 3} {
		h, _ := cityFixture(t, seed, 8000)
		rnd := rand.New(rand.NewSource(seed))
		memo := NewConvMemo(4096)
		for range 20 {
			var p graph.Path
			for p == nil {
				p = h.G.RandomWalkPath(graph.EdgeID(rnd.Intn(h.G.NumEdges())), 5+rnd.Intn(16), rnd.Intn)
			}
			for _, method := range []Method{MethodOD, MethodRD, MethodHP, MethodLB} {
				opt := QueryOptions{Method: method}
				first := make(map[string]*QueryResult)
				perInterval := [2]map[string]bool{{}, {}}
				for k := range 60 {
					at := []float64{8 * 3600, 17 * 3600}[k/30] + float64(k%30*60)
					var m *ConvMemo
					if k%2 == 1 {
						m = memo
					}
					var de *Decomposition
					if k%4 >= 2 {
						var err error
						if de, err = h.Decompose(p, at, opt, &scratch); err != nil {
							t.Fatal(err)
						}
					}
					res, err := h.CostDistributionCtx(nil, m, p, at, opt, de)
					if err != nil {
						t.Fatal(err)
					}
					id := decompositionIdentity(res.Decomp)
					perInterval[k/30][id] = true
					f, ok := first[id]
					if !ok {
						first[id] = res
						continue
					}
					shared++
					if decompositionIdentity(f.Decomp) != id {
						t.Fatalf("seed %d, %s on %v: a kept decomposition changed to %s", seed, method, p, decompositionIdentity(f.Decomp))
					}
					if !slices.Equal(f.Dist.Buckets(), res.Dist.Buckets()) || f.Summary != res.Summary {
						t.Fatalf("seed %d, %s on %v: departures with decomposition %s answer differently", seed, method, p, id)
					}
				}
				groups += len(first)
				if len(perInterval[0]) > 1 || len(perInterval[1]) > 1 {
					moved++
				}
			}
		}
	}
	if shared == 0 || moved == 0 {
		t.Fatalf("%d departures shared a decomposition, and %d (path, method)s picked more than one per interval: the test compares nothing", shared, moved)
	}
	t.Logf("%d decompositions, %d departures answered by an earlier one's; %d (path, method)s moved inside an interval", groups, shared, moved)
}
