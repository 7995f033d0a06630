package pathcost

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hist"
)

// System-level contract of PlanDistributions: a batch answered in
// order, each entry as the single query it is — composed with the query
// cache, the admission gate and per-entry failures.

var (
	planSysOnce sync.Once
	planSysInst *System
	planSysErr  error
)

// plannerTestSystem trains a private system so these tests can toggle
// the cache without leaking state into the shared fixture.
func plannerTestSystem(t testing.TB) *System {
	t.Helper()
	planSysOnce.Do(func() {
		params := DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		planSysInst, planSysErr = Synthesize(SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 21, Params: params,
		})
	})
	if planSysErr != nil {
		t.Fatal(planSysErr)
	}
	return planSysInst
}

// plannerBatchQueries builds a prefix-heavy batch over one dense path.
func plannerBatchQueries(t testing.TB, s *System) []PlanQuery {
	t.Helper()
	dense := s.DensePaths(4, 10)
	if len(dense) == 0 {
		dense = s.DensePaths(3, 10)
	}
	if len(dense) == 0 {
		t.Skip("no dense paths in this workload")
	}
	trunk := dense[0].Path
	lo, _ := s.Params.IntervalBounds(dense[0].Interval)
	depart := lo + 1
	var queries []PlanQuery
	for n := 2; n <= len(trunk); n++ {
		queries = append(queries, PlanQuery{Path: trunk[:n], Depart: depart})
	}
	queries = append(queries, queries[len(queries)-1]) // duplicate entry
	return queries
}

func identicalPlanHist(a, b *hist.Histogram) bool {
	if a.NumBuckets() != b.NumBuckets() {
		return false
	}
	ab, bb := a.Buckets(), b.Buckets()
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

func TestPlanDistributionsCacheInterplay(t *testing.T) {
	s := plannerTestSystem(t)
	queries := plannerBatchQueries(t, s)

	// Storeless reference, computed before any cache exists.
	ref := make([]*hist.Histogram, len(queries))
	for i, q := range queries {
		res, err := s.Hybrid().CostDistribution(q.Path, q.Depart, q.Opt)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res.Dist
	}

	s.EnableQueryCache(256)
	t.Cleanup(func() { s.EnableQueryCache(0) })

	// First pass: every distinct entry is computed and charged once; the
	// duplicate is answered by the cache its twin filled.
	acquired := 0
	out, _ := s.PlanDistributions(context.Background(), queries,
		func() bool { acquired++; return true }, nil)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("entry %d: %v", i, out[i].Err)
		}
		if !identicalPlanHist(ref[i], out[i].Res.Dist) {
			t.Fatalf("entry %d: batched result diverged from independent evaluation", i)
		}
	}
	if acquired != len(queries)-1 {
		t.Fatalf("the gate was charged %d times for %d distinct entries", acquired, len(queries)-1)
	}

	// Second pass: every entry is a query-cache hit, so the gate must
	// never be consulted.
	out2, _ := s.PlanDistributions(context.Background(), queries,
		func() bool { t.Error("acquire called for a fully cached batch"); return true }, nil)
	for i := range out2 {
		if out2[i].Err != nil || !identicalPlanHist(ref[i], out2[i].Res.Dist) {
			t.Fatalf("entry %d: cached answer diverged", i)
		}
	}

	// The batch's results also serve later single queries.
	cs, ok := s.QueryCacheStats()
	if !ok || cs.Hits == 0 {
		t.Fatalf("query cache never hit: %+v", cs)
	}
}

func TestPlanDistributionsGateRejected(t *testing.T) {
	s := plannerTestSystem(t)
	queries := plannerBatchQueries(t, s)
	out, _ := s.PlanDistributions(context.Background(), queries,
		func() bool { return false }, nil)
	for i := range out {
		if out[i].Err != ErrGateRejected {
			t.Fatalf("entry %d: err = %v, want ErrGateRejected", i, out[i].Err)
		}
	}
}

// A batch entry that cannot be evaluated fails alone: entries sharing
// its prefix sub-paths answer normally and identically.
func TestPlanDistributionsErrorContainment(t *testing.T) {
	s := plannerTestSystem(t)
	queries := plannerBatchQueries(t, s)
	trunk := queries[len(queries)-1].Path
	depart := queries[0].Depart
	// Repeating the trunk's first edge breaks path validity at the
	// final chain step, after every prefix it shares with the others.
	bad := append(append(Path{}, trunk...), trunk[0])
	withBad := append([]PlanQuery{{Path: bad, Depart: depart}}, queries...)

	out, _ := s.PlanDistributions(context.Background(), withBad, nil, nil)
	if out[0].Err == nil {
		t.Fatal("invalid-path entry succeeded")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Err != nil {
			t.Fatalf("valid entry %d poisoned by its neighbour: %v", i, out[i].Err)
		}
		res, err := s.Hybrid().CostDistribution(withBad[i].Path, withBad[i].Depart, withBad[i].Opt)
		if err != nil {
			t.Fatal(err)
		}
		if !identicalPlanHist(res.Dist, out[i].Res.Dist) {
			t.Fatalf("valid entry %d diverged next to a failing neighbour", i)
		}
	}
}

// A seeded RD entry is answered with its seed and cached nowhere: the
// query cache keys on the method alone, so caching it would hand its
// answer to the unseeded RD query on the same path.
func TestPlanDistributionsSeededEntryBypassesCache(t *testing.T) {
	s := plannerTestSystem(t)
	h := s.Hybrid()
	// Search fixed draws for a path whose RD answer depends on the seed.
	rnd := rand.New(rand.NewSource(1))
	var (
		p                Path
		depart           float64
		seed             int64
		unseeded, seeded *QueryResult
	)
	for i := 0; i < 200 && seeded == nil; i++ {
		cand, err := s.RandomQueryPath(4+rnd.Intn(12), rnd.Intn)
		if err != nil {
			continue
		}
		dep := 7*3600 + float64(rnd.Intn(4*3600))
		base, err := h.CostDistribution(cand, dep, QueryOptions{Method: RD})
		if err != nil {
			continue
		}
		for sd := int64(1); sd <= 8; sd++ {
			res, err := h.CostDistribution(cand, dep, QueryOptions{Method: RD, Seed: sd})
			if err == nil && !identicalPlanHist(base.Dist, res.Dist) {
				p, depart, seed, unseeded, seeded = cand, dep, sd, base, res
				break
			}
		}
	}
	if seeded == nil {
		t.Fatal("no drawn path has an RD answer that depends on the seed")
	}

	s.EnableQueryCache(256)
	t.Cleanup(func() { s.EnableQueryCache(0) })
	out, _ := s.PlanDistributions(context.Background(),
		[]PlanQuery{{Path: p, Depart: depart, Opt: QueryOptions{Method: RD, Seed: seed}}}, nil, nil)
	if out[0].Err != nil || !identicalPlanHist(out[0].Res.Dist, seeded.Dist) {
		t.Fatalf("the seeded entry was not answered with seed %d (err %v)", seed, out[0].Err)
	}
	got, err := s.PathDistribution(p, depart, RD)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalPlanHist(got.Dist, unseeded.Dist) {
		t.Fatalf("the unseeded RD query on %v was answered with the seed-%d entry's cached result", p, seed)
	}
}
