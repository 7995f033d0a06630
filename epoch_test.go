package pathcost

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gps"
)

// applyDeltas stages batch and publishes it, with anything already
// staged, as one epoch.
func applyDeltas(s *System, batch []*Matched) (EpochStats, error) {
	s.StageTrajectories(batch)
	return s.PublishEpoch()
}

// epochBase trains a system on the first `keep` trajectories of a
// synthesized workload and returns it with the held-out remainder —
// the raw material for incremental-vs-retrain comparisons.
func epochBase(t testing.TB, seed int64, trips, keep int) (*System, []*Matched, *Graph, Params) {
	t.Helper()
	params := DefaultParams()
	params.Beta = 15
	params.MaxRank = 4
	full, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: trips, Seed: seed, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	data := full.Data()
	if keep >= data.Len() {
		t.Fatalf("keep %d >= collection size %d", keep, data.Len())
	}
	var base, held []*Matched
	for i := 0; i < data.Len(); i++ {
		if i < keep {
			base = append(base, data.Traj(i))
		} else {
			held = append(held, data.Traj(i))
		}
	}
	sys, err := NewSystem(full.Graph, gps.NewCollection(base, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return sys, held, full.Graph, params
}

// modelBytes serializes a system's model for byte-exact comparison.
func modelBytes(t testing.TB, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole guarantee: folding held-out trajectories in through N
// random incremental epoch publishes (decay off) yields a model
// byte-identical to retraining from scratch on the concatenated data.
func TestEpochIncrementalMatchesFullRetrain(t *testing.T) {
	sys, held, g, params := epochBase(t, 101, 1200, 900)

	// Feed the held-out tail in randomly sized batches, in order (the
	// stream arrives in order; batch boundaries are what vary).
	rnd := rand.New(rand.NewSource(7))
	startSeq := sys.EpochStats().Seq
	var publishes uint64
	for len(held) > 0 {
		n := 1 + rnd.Intn(len(held))
		st, err := applyDeltas(sys, held[:n])
		if err != nil {
			t.Fatalf("publish of %d: %v", n, err)
		}
		held = held[n:]
		publishes++
		if st.Seq != startSeq+publishes {
			t.Fatalf("epoch seq %d after %d publishes from %d", st.Seq, publishes, startSeq)
		}
		if st.LastTrajs != n {
			t.Fatalf("publish folded %d trajectories, staged %d", st.LastTrajs, n)
		}
	}

	// Three more batches, made by hand for what a publish that reads
	// only the touched intervals could get wrong: a path touched in two
	// intervals by one batch, and a path whose occurrences in an
	// interval reach β only with the third batch — one short of it after
	// the second — so that its variable is new, not rebuilt.
	dense := sys.DensePaths(2, params.Beta)
	if len(dense) == 0 {
		t.Fatal("no dense rank-2 path in the workload")
	}
	p, busy := dense[0].Path, dense[0].Interval
	intervals := int(gps.SecondsPerDay / params.IntervalSeconds())
	quiet, inQuiet := -1, 0
	for iv := 0; iv < intervals && quiet < 0; iv++ {
		n := 0
		for _, oc := range sys.Data().OccurrencesOfPath(p) {
			if params.IntervalOf(sys.Data().Traj(oc.Traj).ArrivalAt(oc.Pos)) == iv {
				n++
			}
		}
		if n < params.Beta-1 && iv != busy && iv != (busy+1)%intervals {
			quiet, inQuiet = iv, n
		}
	}
	if quiet < 0 {
		t.Fatalf("path %v has ≥ β−1 occurrences in every interval", p)
	}
	nextID := int64(9_000_000)
	along := func(iv, n int) []*Matched {
		lo, _ := params.IntervalBounds(iv)
		out := make([]*Matched, n)
		for i := range out {
			out[i] = &Matched{
				ID: nextID, Path: p.Clone(), Depart: lo + 5 + float64(i),
				EdgeCosts: []float64{20 + float64(nextID%7), 30 + float64(nextID%5)},
			}
			nextID++
		}
		return out
	}
	apply := func(batch []*Matched) EpochStats {
		t.Helper()
		st, err := applyDeltas(sys, batch)
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
		publishes++
		return st
	}
	if st := apply(append(along(busy, 3), along((busy+1)%intervals, 3)...)); st.LastRebuiltVars == 0 {
		t.Fatalf("a batch on dense path %v rebuilt no variable", p)
	}
	apply(along(quiet, params.Beta-1-inQuiet))
	if v := sys.Hybrid().LookupInterval(p, quiet); v != nil {
		t.Fatalf("path %v has a variable in interval %d one occurrence short of β", p, quiet)
	}
	if st := apply(along(quiet, 1)); st.LastNewVars == 0 || sys.Hybrid().LookupInterval(p, quiet) == nil {
		t.Fatalf("the occurrence that reaches β in interval %d created no variable for %v (new vars %d)", quiet, p, st.LastNewVars)
	}

	// Reference: full retrain on the identical concatenated stream.
	fullData := sys.Data()
	trajs := make([]*Matched, fullData.Len())
	for i := range trajs {
		trajs[i] = fullData.Traj(i)
	}
	ref, err := NewSystem(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}

	got, want := modelBytes(t, sys), modelBytes(t, ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("incremental model (%d bytes) differs from full retrain (%d bytes) after %d publishes",
			len(got), len(want), publishes)
	}
}

// Decay mode cannot be byte-identical by design; it must stay a valid
// probability model that absorbs the new mass, and untouched
// variables must be untouched (copy-on-write shares them by pointer).
func TestEpochDecayStaysNormalized(t *testing.T) {
	sys, held, _, _ := epochBase(t, 103, 1000, 800)
	sys.SetDecayHalflife(time.Hour)

	before := sys.Hybrid()
	if _, err := applyDeltas(sys, held); err != nil {
		t.Fatalf("decay publish: %v", err)
	}
	if sys.Hybrid() == before {
		t.Fatal("decay publish did not produce a new hybrid")
	}
	st := sys.EpochStats()
	if st.LastDecayFactor <= 0 || st.LastDecayFactor > 1 {
		t.Fatalf("decay factor %v out of (0, 1]", st.LastDecayFactor)
	}

	// Every queryable dense path still answers with a normalized
	// distribution.
	dense := sys.DensePaths(2, 8)
	if len(dense) == 0 {
		t.Fatal("no dense paths in workload")
	}
	for _, dp := range dense[:min(5, len(dense))] {
		lo, _ := sys.Params.IntervalBounds(dp.Interval)
		res, err := sys.PathDistribution(dp.Path, lo+1, OD)
		if err != nil {
			t.Fatalf("query after decay publish: %v", err)
		}
		var total float64
		for _, b := range res.Dist.Buckets() {
			total += b.Pr
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("distribution total %v after decay publish", total)
		}
	}
}

// Queries must keep serving — and serve only consistent epochs —
// while publishes run. Run under -race: the epoch swap, the staged
// buffer, the memo views and the query cache all get hammered at
// once. Consistency check: a result obtained concurrently with
// publishes is always byte-identical to re-asking the epoch it was
// served from.
func TestEpochConcurrentQueriesDuringPublish(t *testing.T) {
	sys, held, _, _ := epochBase(t, 107, 1000, 600)
	sys.EnableQueryCache(512)
	sys.EnableConvMemo(1024)

	dense := sys.DensePaths(3, 10)
	if len(dense) == 0 {
		t.Skip("no dense paths in workload")
	}
	paths := dense[:min(8, len(dense))]

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var queries atomic.Int64
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for ctx.Err() == nil {
				dp := paths[rnd.Intn(len(paths))]
				lo, _ := sys.Params.IntervalBounds(dp.Interval)
				if _, err := sys.PathDistribution(dp.Path, lo+1, OD); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				queries.Add(1)
			}
		}(w)
	}

	// Publisher: fold the held-out tail in small batches while the
	// query storm runs.
	for i := 0; i+20 <= len(held); i += 20 {
		if _, err := applyDeltas(sys, held[i:i+20]); err != nil {
			cancel()
			wg.Wait()
			t.Fatalf("publish %d: %v", i/20, err)
		}
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("query failed during publishing: %v", err)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during publishing")
	}
	if sys.EpochStats().Seq < 2 {
		t.Fatalf("no epochs published (seq %d)", sys.EpochStats().Seq)
	}
}

// Stale derived state must never cross an epoch boundary: with cache
// and memo both hot, a query after a publish that touched the
// path must answer from the NEW model — byte-identical to a cold
// system retrained on the concatenated data — not from any cached
// artifact of the old epoch.
func TestEpochInvalidatesCachesAcrossPublish(t *testing.T) {
	sys, held, g, params := epochBase(t, 109, 1200, 900)
	sys.EnableQueryCache(512)
	sys.EnableConvMemo(1024)

	// A workload drawn from the dense paths, so the warmed layers hold
	// exactly the states a stale read would hit.
	dense := sys.DensePaths(3, 10)
	if len(dense) == 0 {
		t.Skip("no dense paths in workload")
	}
	var wl []WorkloadQuery
	for _, dp := range dense[:min(6, len(dense))] {
		lo, _ := sys.Params.IntervalBounds(dp.Interval)
		wl = append(wl, WorkloadQuery{Path: dp.Path, Depart: lo + 1})
	}
	// Warm every layer on the old epoch.
	for _, q := range wl {
		if _, err := sys.PathDistribution(q.Path, q.Depart, OD); err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}

	if _, err := applyDeltas(sys, held); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Reference system, cold, on the concatenated data.
	fullData := sys.Data()
	trajs := make([]*Matched, fullData.Len())
	for i := range trajs {
		trajs[i] = fullData.Traj(i)
	}
	ref, err := NewSystem(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range wl {
		got, err := sys.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatalf("post-publish query: %v", err)
		}
		want, err := ref.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		gb, wb := got.Dist.Buckets(), want.Dist.Buckets()
		if len(gb) != len(wb) {
			t.Fatalf("path %v: %d buckets vs reference %d — stale state served", q.Path, len(gb), len(wb))
		}
		for i := range gb {
			if gb[i] != wb[i] {
				t.Fatalf("path %v bucket %d: %+v vs reference %+v — stale state served",
					q.Path, i, gb[i], wb[i])
			}
		}
	}
}

// Staging validates; publish restores the staged batch on failure.
func TestStageTrajectoriesRejectsInvalid(t *testing.T) {
	sys, held, _, _ := epochBase(t, 113, 600, 500)
	bad := &Matched{ID: 999, Path: Path{EdgeID(0), EdgeID(0)}, Depart: 0, EdgeCosts: []float64{1, 1}}
	accepted, rejected := sys.StageTrajectories([]*Matched{held[0], nil, bad})
	if accepted != 1 || rejected != 2 {
		t.Fatalf("accepted %d, rejected %d; want 1, 2", accepted, rejected)
	}
	if sys.StagedCount() != 1 {
		t.Fatalf("staged %d, want 1", sys.StagedCount())
	}
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if sys.StagedCount() != 0 {
		t.Fatalf("staged %d after publish, want 0", sys.StagedCount())
	}
}

// A publish with nothing staged must be a cheap no-op that does not
// advance the epoch.
func TestPublishEpochEmptyNoOp(t *testing.T) {
	sys, _, _, _ := epochBase(t, 127, 600, 500)
	seq := sys.EpochStats().Seq
	st, err := sys.PublishEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != seq || sys.EpochStats().Seq != seq {
		t.Fatalf("empty publish moved epoch %d → %d", seq, sys.EpochStats().Seq)
	}
}
