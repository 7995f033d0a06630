package pathcost

import (
	"math"
	"testing"

	"repro/internal/gps"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// TestGPSPipelineEndToEnd runs the entire paper pipeline on raw GPS:
// simulate traces with noise, map-match them, train the hybrid graph,
// and check that queried distributions are close to those trained on
// the generator's ground-truth matches.
func TestGPSPipelineEndToEnd(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 21, NumTrips: 1200, EmitGPS: true,
		SamplingIntervalS: 3, GPSNoiseM: 5,
	})
	res := gen.Generate()

	params := DefaultParams()
	params.Beta = 10
	params.MaxRank = 3

	sys, st, err := SystemFromGPS(g, res.Raw, MatcherConfig{}, params)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matched < 1000 {
		t.Fatalf("only %d/%d trajectories matched", st.Matched, len(res.Raw))
	}
	if st.Records == 0 {
		t.Fatal("record count missing")
	}
	if sys.Stats().TotalVariables() == 0 {
		t.Fatal("no variables trained from matched GPS")
	}

	// Train a reference system on the generator's exact matches and
	// compare a dense-path distribution: matching noise should not move
	// the mean by much.
	ref, err := NewSystem(g, res.Collection, params)
	if err != nil {
		t.Fatal(err)
	}
	dense := ref.DensePaths(3, 15)
	if len(dense) == 0 {
		t.Skip("no dense paths in reference data")
	}
	compared := 0
	for _, dp := range dense {
		if compared >= 5 {
			break
		}
		lo, _ := params.IntervalBounds(dp.Interval)
		refDist, err1 := ref.PathDistribution(dp.Path, lo+60, OD)
		gpsDist, err2 := sys.PathDistribution(dp.Path, lo+60, OD)
		if err1 != nil || err2 != nil {
			continue
		}
		rm, gm := refDist.Dist.Mean(), gpsDist.Dist.Mean()
		if math.Abs(rm-gm) > 0.35*rm+10 {
			t.Fatalf("path %v: GPS-pipeline mean %v vs reference %v", dp.Path, gm, rm)
		}
		compared++
	}
	if compared == 0 {
		t.Skip("no comparable paths")
	}
}

func TestMatchTrajectoriesEmptyAndBroken(t *testing.T) {
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	if _, _, err := MatchTrajectories(g, nil, MatcherConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// A single far-away trace: pipeline must fail cleanly.
	tr := &Trajectory{ID: 1, Records: []gps.Record{
		{Pt: g.BBox().Center(), Time: 0},
		{Pt: g.BBox().Center(), Time: 5},
	}}
	tr.Records[0].Pt.Lat += 2
	tr.Records[1].Pt.Lat += 2
	if _, st, err := MatchTrajectories(g, []*Trajectory{tr}, MatcherConfig{}); err == nil {
		t.Fatalf("unmatchable input accepted (stats %+v)", st)
	}

	// A nil trace is one failed match, never a crash — with a pool too,
	// where a panic would take the process down beyond any recover.
	_, raw := rawFixture(3, 20)
	want, base, err := MatchTrajectories(g, raw, MatcherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two nils and the unmatchable trace (two fixes) around the batch.
	withNil := append([]*Trajectory{nil}, append(raw[:len(raw):len(raw)], nil, tr)...)
	wantSt := MatchStats{Matched: base.Matched, Failed: base.Failed + 3, Records: base.Records + 2}
	for _, workers := range []int{1, 4} {
		got, st, err := MatchTrajectories(g, withNil, MatcherConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st != wantSt {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantSt)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d matched, want %d", workers, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if a, b := got.Traj(i), want.Traj(i); a.ID != b.ID || !a.Path.Equal(b.Path) {
				t.Fatalf("workers=%d: trajectory %d is %d %v, want %d %v", workers, i, a.ID, a.Path, b.ID, b.Path)
			}
		}
	}
}
