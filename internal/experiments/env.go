package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// Config selects a workload. D1 plays the role of the Aalborg fleet
// (all-roads city, moderate data), D2 the Beijing fleet (main-roads
// city, more data).
type Config struct {
	Name   string
	Preset netgen.Preset
	Trips  int
	Seed   int64
	// PathsPerPoint and RoutePairs bound experiment workload sizes so
	// the suite stays laptop-scale.
	PathsPerPoint int
	RoutePairs    int
	// Beta overrides the qualified-trajectory threshold (0 = paper
	// default of 30); tiny test workloads need a smaller one.
	Beta int
}

// D1 returns the Aalborg-like workload configuration.
func D1() Config {
	return Config{
		Name: "D1", Preset: netgen.PresetSmall, Trips: 25000, Seed: 11,
		PathsPerPoint: 25, RoutePairs: 8,
	}
}

// D2 returns the Beijing-like workload configuration.
func D2() Config {
	return Config{
		Name: "D2", Preset: netgen.PresetSmall, Trips: 50000, Seed: 22,
		PathsPerPoint: 25, RoutePairs: 8,
	}
}

// Tiny returns a minimal configuration for tests.
func Tiny() Config {
	return Config{
		Name: "tiny", Preset: netgen.PresetTest, Trips: 3000, Seed: 7,
		PathsPerPoint: 5, RoutePairs: 3, Beta: 10,
	}
}

// Env is a lazily built, cached experiment environment: one network,
// one trajectory workload, and trained hybrid graphs per parameter
// set.
type Env struct {
	Cfg Config
	G   *graph.Graph
	Res *trajgen.Result

	mu      sync.Mutex
	hybrids map[string]*core.HybridGraph
}

// NewEnv generates the network and workload for cfg.
func NewEnv(cfg Config) *Env {
	g := netgen.Generate(netgen.PresetConfig(cfg.Preset))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: cfg.Seed, NumTrips: cfg.Trips, WithEmissions: true,
	})
	return &Env{
		Cfg:     cfg,
		G:       g,
		Res:     gen.Generate(),
		hybrids: make(map[string]*core.HybridGraph),
	}
}

// Params returns the defaults adjusted for the experiment scale: the
// paper's α and β with a rank bound that keeps joints tractable.
func (e *Env) Params() core.Params {
	p := core.DefaultParams()
	// Rank 4 matches the paper's regime: its Figures 9–10 show rank ≥ 4
	// variables are the scarcest class, so decompositions rarely chain
	// many deeply-overlapping high-rank joints.
	p.MaxRank = 4
	if e.Cfg.Beta > 0 {
		p.Beta = e.Cfg.Beta
	}
	return p
}

// densePathsRelaxed looks for dense paths at the ideal support level
// and falls back to the β threshold when the scaled workload has none.
func (e *Env) densePathsRelaxed(params core.Params, card, ideal, limit int) []core.DensePath {
	if out := e.densePaths(params, card, ideal, limit); len(out) > 0 {
		return out
	}
	if ideal > params.Beta {
		return e.densePaths(params, card, params.Beta, limit)
	}
	return nil
}

// Hybrid returns (building and caching on first use) the hybrid graph
// for the given parameters over the given data subset fraction
// (1.0 = all trajectories).
func (e *Env) Hybrid(params core.Params, fraction float64) (*core.HybridGraph, error) {
	key := fmt.Sprintf("%d|%d|%d|%d|%v|%.2f",
		params.AlphaMinutes, params.Beta, params.MaxRank, params.StaticBuckets, params.Domain, fraction)
	e.mu.Lock()
	defer e.mu.Unlock()
	if h, ok := e.hybrids[key]; ok {
		return h, nil
	}
	data := e.Res.Collection
	if fraction < 1 {
		data = data.Subset(int(float64(data.Len()) * fraction))
	}
	h, err := core.Build(e.G, data, params)
	if err != nil {
		return nil, err
	}
	e.hybrids[key] = h
	return h, nil
}

// Data returns the full trajectory collection.
func (e *Env) Data() *gps.Collection { return e.Res.Collection }

// densePaths is core.DensePaths over the workload, cut to its first
// limit entries when limit > 0.
func (e *Env) densePaths(params core.Params, cardinality, minCount, limit int) []core.DensePath {
	out := core.DensePaths(e.Res.Collection, params, cardinality, minCount)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// randomPaths samples n simple paths of exactly card edges, seeded
// deterministically. Paths are drawn as windows of real trajectories
// (falling back to random walks), so query workloads follow travelled
// corridors the way the paper's query paths do, instead of wandering
// into roads no vehicle ever used.
func (e *Env) randomPaths(card, n int, seed int64) []graph.Path {
	rnd := rand.New(rand.NewSource(seed))
	data := e.Res.Collection
	var out []graph.Path
	seen := make(map[string]bool)
	for attempt := 0; attempt < n*200 && len(out) < n; attempt++ {
		m := data.Traj(rnd.Intn(data.Len()))
		if len(m.Path) >= card {
			pos := rnd.Intn(len(m.Path) - card + 1)
			p := m.Path[pos : pos+card].Clone()
			if !seen[p.Key()] {
				seen[p.Key()] = true
				out = append(out, p)
			}
			continue
		}
		start := graph.EdgeID(rnd.Intn(e.G.NumEdges()))
		if p := e.G.RandomWalkPath(start, card, rnd.Intn); p != nil && !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

// departureFor returns a departure second inside interval iv.
func departureFor(params core.Params, iv int) float64 {
	lo, _ := params.IntervalBounds(iv)
	return lo + 60
}
