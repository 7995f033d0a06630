package pathcost

// Benchmarks: one per table/figure of the paper's evaluation (run via
// go test -bench=Fig -benchmem) plus micro-benchmarks of the core
// operations. The figure benchmarks execute the same experiment code
// that cmd/experiments uses, on a reduced workload, so `-bench .`
// regenerates every figure's computation under the Go benchmark
// harness; cmd/experiments prints the full-size tables.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hist"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		cfg := experiments.Tiny()
		cfg.Trips = 6000
		cfg.PathsPerPoint = 8
		benchEnv = experiments.NewEnv(cfg)
	})
	return benchEnv
}

func benchFigure(b *testing.B, id string) {
	e := benchEnvironment(b)
	// Warm the hybrid-graph caches outside the timed region.
	if _, err := experiments.Run(e, id); err != nil {
		b.Fatalf("figure %s: %v", id, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(e, id); err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
	}
}

// One benchmark per evaluation figure (Section 5).

func BenchmarkFig03Sparseness(b *testing.B)   { benchFigure(b, "3") }
func BenchmarkFig04Independence(b *testing.B) { benchFigure(b, "4") }
func BenchmarkFig05AutoBuckets(b *testing.B)  { benchFigure(b, "5") }
func BenchmarkFig08Alpha(b *testing.B)        { benchFigure(b, "8") }
func BenchmarkFig09Beta(b *testing.B)         { benchFigure(b, "9") }
func BenchmarkFig10DatasetSize(b *testing.B)  { benchFigure(b, "10") }
func BenchmarkFig11Histograms(b *testing.B)   { benchFigure(b, "11") }
func BenchmarkFig12Memory(b *testing.B)       { benchFigure(b, "12") }
func BenchmarkFig13Shapes(b *testing.B)       { benchFigure(b, "13") }
func BenchmarkFig14Accuracy(b *testing.B)     { benchFigure(b, "14") }
func BenchmarkFig15Entropy(b *testing.B)      { benchFigure(b, "15") }
func BenchmarkFig16Efficiency(b *testing.B)   { benchFigure(b, "16") }
func BenchmarkFig17Breakdown(b *testing.B)    { benchFigure(b, "17") }
func BenchmarkFig18Routing(b *testing.B)      { benchFigure(b, "18") }

// Table 2 has no computation — it is the parameter grid driving the
// sweeps above (α in Fig08, β in Fig09, |P| in Fig14–16).

// --- Micro-benchmarks of the building blocks ---

func benchHybrid(b *testing.B) (*experiments.Env, *core.HybridGraph) {
	b.Helper()
	e := benchEnvironment(b)
	h, err := e.Hybrid(e.Params(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return e, h
}

// BenchmarkTrainHybridGraph measures full weight instantiation
// (Section 3): rank-1 histograms plus bottom-up joint growth.
func BenchmarkTrainHybridGraph(b *testing.B) {
	e := benchEnvironment(b)
	params := e.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(e.G, e.Data(), params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVOptimal measures the histogram DP on a 300-sample raw
// distribution.
func BenchmarkVOptimal(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	samples := make([]float64, 300)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = float64(int(60 + rnd.NormFloat64()*5))
		} else {
			samples[i] = float64(int(120 + rnd.NormFloat64()*9))
		}
	}
	raw, err := hist.NewRaw(samples, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hist.VOptimal(raw, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoHistogram measures the f-fold cross-validated bucket
// selection (Section 3.1).
func BenchmarkAutoHistogram(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = float64(int(90 + rnd.NormFloat64()*20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hist.AutoHistogram(samples, 1, hist.DefaultAutoConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarsestDecomposition measures Algorithm 1 alone (the OI
// step of Figure 17).
func BenchmarkCoarsestDecomposition(b *testing.B) {
	e, h := benchHybrid(b)
	rnd := rand.New(rand.NewSource(5))
	var p graph.Path
	for p == nil {
		start := graph.EdgeID(rnd.Intn(e.G.NumEdges()))
		p = e.G.RandomWalkPath(start, 30, rnd.Intn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, err := h.BuildCandidateArray(p, 8*3600)
		if err != nil {
			b.Fatal(err)
		}
		ca.CoarsestDecomposition(0)
	}
}

// BenchmarkMapMatchPipeline is defined in the mapmatch package tests;
// the end-to-end GPS pipeline cost is dominated by Viterbi decoding.
