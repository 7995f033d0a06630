package pathcost

// Benchmarks for the concurrent ingestion-and-estimation engine: map
// matching scaling with worker count and hybrid-graph training
// scaling. Run with
//
//	go test -bench 'MatchTrajectories|BuildWorkers' -benchmem .

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

var (
	ingestOnce sync.Once
	ingestG    *Graph
	ingestRaw  []*Trajectory
)

func ingestFixture(b *testing.B) (*Graph, []*Trajectory) {
	b.Helper()
	ingestOnce.Do(func() {
		ingestG, ingestRaw = rawFixture(5, 1500)
	})
	return ingestG, ingestRaw
}

// benchWorkerCounts returns the worker counts worth comparing on this
// machine: sequential and NumCPU (plus a fixed pool size on single-core
// machines, so the pooled code path is still benchmarked).
func benchWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1, 4}
}

// BenchmarkMatchTrajectories measures ingestion throughput at 1 worker
// and at NumCPU workers; the ratio is the multi-core speedup claimed
// by the engine.
func BenchmarkMatchTrajectories(b *testing.B) {
	g, raw := ingestFixture(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(len(raw)), "trajs/op")
			for i := 0; i < b.N; i++ {
				if _, _, err := MatchTrajectories(g, raw, MatcherConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildWorkers measures hybrid-graph training throughput at 1
// worker and at NumCPU workers over the same matched collection.
func BenchmarkBuildWorkers(b *testing.B) {
	g, raw := ingestFixture(b)
	data, _, err := MatchTrajectories(g, raw, MatcherConfig{Workers: runtime.NumCPU()})
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	params.Beta = 5
	params.MaxRank = 3
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := params
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(g, data, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
