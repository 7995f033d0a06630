package pathcost

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// rawFixture simulates a test-size city with noisy GPS traces for the
// ingestion tests and benchmarks.
func rawFixture(seed int64, trips int) (*Graph, []*Trajectory) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: seed, NumTrips: trips, EmitGPS: true,
		SamplingIntervalS: 3, GPSNoiseM: 5,
	})
	return g, gen.Generate().Raw
}

// TestParallelMatchMatchesSequential checks the tentpole determinism
// claim: sharding ingestion across workers changes wall-clock time
// only — matched paths, per-edge costs and stats are identical to the
// sequential run. Run with -race to also verify the pool's memory
// discipline.
func TestParallelMatchMatchesSequential(t *testing.T) {
	g, raw := rawFixture(7, 400)

	seq, seqSt, err := MatchTrajectories(g, raw, MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 64} {
		par, parSt, err := MatchTrajectories(g, raw, MatcherConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if seqSt != parSt {
			t.Fatalf("workers=%d: stats %+v, sequential %+v", workers, parSt, seqSt)
		}
		if seq.Len() != par.Len() {
			t.Fatalf("workers=%d: %d matched vs %d sequential", workers, par.Len(), seq.Len())
		}
		for i := 0; i < seq.Len(); i++ {
			a, b := seq.Traj(i), par.Traj(i)
			if a.ID != b.ID || a.Depart != b.Depart || !a.Path.Equal(b.Path) {
				t.Fatalf("workers=%d: trajectory %d differs: %+v vs %+v", workers, i, a, b)
			}
			for j := range a.EdgeCosts {
				if a.EdgeCosts[j] != b.EdgeCosts[j] {
					t.Fatalf("workers=%d: trajectory %d cost %d: %v vs %v",
						workers, i, j, b.EdgeCosts[j], a.EdgeCosts[j])
				}
			}
		}
	}
}

// TestParallelTrainingModelIdentical trains the hybrid graph serially
// and with a worker pool and asserts the serialized models are
// byte-identical (model serialization is deterministic, so this is the
// strongest possible equality).
func TestParallelTrainingModelIdentical(t *testing.T) {
	g, raw := rawFixture(11, 400)
	data, _, err := MatchTrajectories(g, raw, MatcherConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Beta = 5
	params.MaxRank = 3

	var models [][]byte
	for _, workers := range []int{1, 8} {
		p := params
		p.Workers = workers
		sys, err := NewSystem(g, data, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sys.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		models = append(models, buf.Bytes())
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Fatalf("serial and parallel training produced different models (%d vs %d bytes)",
			len(models[0]), len(models[1]))
	}
}

// TestQueryCache exercises the cache wiring end to end: repeated
// queries hit, distinct intervals miss, and stats reflect both.
func TestQueryCache(t *testing.T) {
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense := sys.DensePaths(3, 10)
	if len(dense) == 0 {
		t.Skip("no dense paths")
	}
	p := dense[0].Path
	lo, _ := sys.Params.IntervalBounds(dense[0].Interval)

	if _, ok := sys.QueryCacheStats(); ok {
		t.Fatal("cache reported enabled before EnableQueryCache")
	}
	sys.EnableQueryCache(128)

	first, err := sys.PathDistribution(p, lo+60, OD)
	if err != nil {
		t.Fatal(err)
	}
	// A minute later the path picks the same variables: the answer is
	// served from the cache's second level, as the same pointer.
	again, err := sys.PathDistribution(p, lo+120, OD)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("repeated same-interval query was recomputed")
	}
	// A different method is a different key.
	if _, err := sys.PathDistribution(p, lo+60, LB); err != nil {
		t.Fatal(err)
	}
	st, ok := sys.QueryCacheStats()
	if !ok {
		t.Fatal("cache stats unavailable")
	}
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses / 2 entries", st)
	}

	// Disabling brings back recomputation.
	sys.EnableQueryCache(0)
	fresh, err := sys.PathDistribution(p, lo+60, OD)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first {
		t.Fatal("disabled cache still serving cached results")
	}
}

// TestQueryCacheConcurrent runs cached queries from many goroutines;
// meaningful under -race.
func TestQueryCacheConcurrent(t *testing.T) {
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense := sys.DensePaths(3, 10)
	if len(dense) < 2 {
		t.Skip("not enough dense paths")
	}
	if len(dense) > 6 {
		dense = dense[:6] // a hot working set that fits the cache
	}
	sys.EnableQueryCache(64)
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 40; i++ {
				dp := dense[(w+i)%len(dense)]
				lo, _ := sys.Params.IntervalBounds(dp.Interval)
				if _, err := sys.PathDistribution(dp.Path, lo+60, OD); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, _ := sys.QueryCacheStats()
	if st.Hits == 0 {
		t.Fatal("no cache hits under a skewed concurrent workload")
	}
}
