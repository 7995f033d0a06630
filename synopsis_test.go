package pathcost

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
)

// End-to-end synopsis flow over the public API: train, build a
// synopsis from a workload sample, persist model+synopsis, load into
// a fresh system, and verify the loaded system answers byte-for-byte
// like the training process — with the synopsis actually being hit.
func TestSynopsisSaveLoadEndToEnd(t *testing.T) {
	params := DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 31, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	workload, err := sys.SyntheticWorkload(128, 8, 7, []float64{8 * 3600, 17 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sys.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() == 0 {
		t.Fatal("empty synopsis from a prefix-heavy workload")
	}
	rep := syn.Report()
	if rep.SavedSteps == 0 || rep.TotalSteps < rep.SavedSteps {
		t.Fatalf("implausible selection report: %+v", rep)
	}

	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(sys.Graph, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := loaded.SynopsisStats()
	if !ok {
		t.Fatal("loaded system has no synopsis attached")
	}
	if st.Entries != syn.Len() || st.Bytes != syn.Bytes() {
		t.Fatalf("loaded synopsis %d entries/%d bytes, want %d/%d",
			st.Entries, st.Bytes, syn.Len(), syn.Bytes())
	}

	// Reference answers from a synopsis-free, memo-free system.
	sys.AttachSynopsis(nil)
	for _, q := range workload {
		want, err := sys.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatal(err)
		}
		wb, gb := want.Dist.Buckets(), got.Dist.Buckets()
		if len(wb) != len(gb) {
			t.Fatalf("bucket counts differ on %v", q.Path)
		}
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("loaded synopsis answer differs at bucket %d on %v", i, q.Path)
			}
		}
	}
	if st, _ := loaded.SynopsisStats(); st.Hits == 0 {
		t.Fatalf("workload replay never hit the loaded synopsis: %+v", st)
	}

	// Detaching removes it from queries and stats alike.
	loaded.AttachSynopsis(nil)
	if _, ok := loaded.SynopsisStats(); ok {
		t.Fatal("stats still report a synopsis after detach")
	}
}

// synopsisModelGolden is the SHA-256 of the model file that
// TestSynopsisModelGolden writes: taken while every PathState still
// kept its last factor's product, whose "pre" records the writer now
// rebuilds.
const synopsisModelGolden = "e001d7d1eadeb030cd087a4b8184eb8e8b2097184d1bb7b77c3fcd062b74bfda"

// The model file of a system with a synopsis attached is byte-identical
// to the golden one, and that file loads into a system that answers
// every workload path, and every one-edge extension of one (a child of
// a loaded state), exactly as the writing system and a system without
// any synopsis do; written again, it is the same file.
func TestSynopsisModelGolden(t *testing.T) {
	params := DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 31, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	workload, err := sys.SyntheticWorkload(96, 8, 11, []float64{8 * 3600, 17 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	// Every workload path and its one-edge extensions, each answered
	// first with no synopsis attached.
	type query struct {
		p      Path
		depart float64
		want   *QueryResult
	}
	var queries []query
	for _, q := range workload {
		paths := []Path{q.Path}
		for _, e := range sys.Graph.NextEdges(q.Path[len(q.Path)-1]) {
			if p := append(q.Path.Clone(), e); sys.Graph.ValidPath(p) {
				paths = append(paths, p)
			}
		}
		for _, p := range paths {
			res, err := sys.PathDistribution(p, q.Depart, OD)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{p, q.Depart, res})
		}
	}
	syn, err := sys.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() == 0 {
		t.Fatal("empty synopsis")
	}
	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != synopsisModelGolden {
		t.Fatalf("model file with a synopsis: sha256 %s, golden %s", got, synopsisModelGolden)
	}
	loaded, err := LoadSystem(sys.Graph, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.SaveModel(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("the loaded system writes a different model file")
	}

	for _, q := range queries {
		for name, s := range map[string]*System{"writer": sys, "loaded": loaded} {
			got, err := s.PathDistribution(q.p, q.depart, OD)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Dist.Buckets(), q.want.Dist.Buckets()) {
				t.Fatalf("%s: %v at %v differs from the answer without a synopsis", name, q.p, q.depart)
			}
		}
	}
	if st, _ := loaded.SynopsisStats(); st.Hits == 0 {
		t.Fatalf("no query resumed from a loaded state: %+v", st)
	}
}

// Routing on a synopsis-backed system must return the same route as
// the synopsis-free system, and never probe the store: a search resumes
// each expansion from its parent's state.
func TestSynopsisRoutingEquivalence(t *testing.T) {
	params := DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: 3000, Seed: 31, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	// Route once without any acceleration to fix the reference.
	src := VertexID(3)
	var dst VertexID = -1
	for v := sys.Graph.NumVertices() - 1; v > 0; v-- {
		if VertexID(v) != src {
			if _, _, err := sys.Router().FastestPath(src, VertexID(v)); err == nil {
				dst = VertexID(v)
				break
			}
		}
	}
	if dst < 0 {
		t.Skip("no reachable destination")
	}
	_, ff, err := sys.Router().FastestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * ff
	want, err := sys.Route(src, dst, 8*3600, budget, OD)
	if err != nil {
		t.Fatal(err)
	}

	// Synopsis over the reference route's prefixes: the very states the
	// search re-walks.
	var workload []WorkloadQuery
	for n := 2; n <= len(want.Path); n++ {
		workload = append(workload, WorkloadQuery{Path: want.Path[:n], Depart: 8 * 3600})
	}
	if _, err := sys.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 64}); err != nil {
		t.Fatal(err)
	}
	before, _ := sys.SynopsisStats()
	got, err := sys.Route(src, dst, 8*3600, budget, OD)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Path.Equal(want.Path) || got.Prob != want.Prob {
		t.Fatalf("synopsis-backed route differs: %v p=%v vs %v p=%v",
			got.Path, got.Prob, want.Path, want.Prob)
	}
	if after, _ := sys.SynopsisStats(); after != before {
		t.Fatalf("routing probed the synopsis: %+v, was %+v", after, before)
	}
}
