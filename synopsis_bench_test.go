package pathcost

// Cold-start benchmark for the offline sub-path synopsis: a freshly
// booted server (cold ConvMemo) with the model's persisted synopsis
// attached, replaying a prefix-heavy workload. No cmd/bench workload
// attaches a synopsis yet, so this is the only number for it. Run with:
//
//	go test -bench PathDistributionSynopsis -benchmem .

import (
	"sync"
	"testing"
)

var (
	synBenchOnce     sync.Once
	synBenchSys      *System
	synBenchWorkload []WorkloadQuery
	synBenchErr      error
)

func synBenchSetup(b *testing.B) (*System, []WorkloadQuery) {
	b.Helper()
	synBenchOnce.Do(func() {
		params := DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		synBenchSys, synBenchErr = Synthesize(SynthesizeConfig{
			Preset: "test", Trips: 6000, Seed: 23, Params: params,
		})
		if synBenchErr != nil {
			return
		}
		synBenchWorkload, synBenchErr = synBenchSys.SyntheticWorkload(512, 10, 23, []float64{8 * 3600})
	})
	if synBenchErr != nil {
		b.Fatal(synBenchErr)
	}
	return synBenchSys, synBenchWorkload
}

// replay answers the whole workload once, sequentially (the cold-start
// cost being measured is convolution work, not scheduling).
func replay(b *testing.B, sys *System, workload []WorkloadQuery) {
	b.Helper()
	for _, q := range workload {
		if _, err := sys.PathDistribution(q.Path, q.Depart, OD); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathDistributionSynopsis is a cold server start — fresh
// ConvMemo every iteration — with the model's synopsis attached: the
// workload's sub-paths were selected and materialized offline, so the
// replay runs on pre-computed states from the first query.
func BenchmarkPathDistributionSynopsis(b *testing.B) {
	sys, workload := synBenchSetup(b)
	syn, err := sys.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.AttachSynopsis(nil)
	defer sys.EnableConvMemo(0)
	b.Logf("synopsis: %d entries, %d bytes", syn.Len(), syn.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.EnableConvMemo(1 << 16) // memo cold; only the synopsis is warm
		b.StartTimer()
		replay(b, sys, workload)
	}
}
