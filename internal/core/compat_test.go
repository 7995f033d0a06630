package core_test

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	pathcost "repro"
	"repro/internal/geo"
	"repro/internal/graph"
)

// The two compatibility fixtures are the table-1 model (five-edge chain,
// MaxRank 4), written once by a build whose model files could carry an
// offline synopsis: table1.model without one, table1-synopsis-v1.model
// with a four-entry "synopsis-v1" section after the same model records.
const (
	plainModelFile    = "testdata/table1.model"
	synopsisModelFile = "testdata/table1-synopsis-v1.model"
)

// compatChain is the road network both fixtures were trained on: the
// table-1 five-edge chain.
func compatChain() *graph.Graph {
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= 5; i++ {
		vs = append(vs, b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}))
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(vs[i], vs[i+1], 300, 50, graph.ClassSecondary)
	}
	return b.Freeze()
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A model file written with a trailing synopsis section loads with the
// section ignored: SaveModel of the loaded system is the synopsis-free
// file byte for byte, and it answers every sub-path of the chain, for
// every method and a spread of departures, exactly as the synopsis-free
// file does. A model truncated before the section still fails.
func TestModelFileWithSynopsisSectionLoads(t *testing.T) {
	g := compatChain()
	plainBytes, synBytes := readFixture(t, plainModelFile), readFixture(t, synopsisModelFile)
	if !bytes.Contains(synBytes, []byte("\nsynopsis-v1 ")) {
		t.Fatal("the fixture carries no synopsis section")
	}
	plain, err := pathcost.LoadSystem(g, nil, bytes.NewReader(plainBytes))
	if err != nil {
		t.Fatal(err)
	}
	withSyn, err := pathcost.LoadSystem(g, nil, bytes.NewReader(synBytes))
	if err != nil {
		t.Fatalf("a model file with a synopsis section: %v", err)
	}
	var saved bytes.Buffer
	if err := withSyn.SaveModel(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), plainBytes) {
		t.Fatal("SaveModel of the loaded file differs from the synopsis-free model file")
	}

	for lo := 0; lo < 5; lo++ {
		for hi := lo + 1; hi <= 5; hi++ {
			p := make(pathcost.Path, 0, hi-lo)
			for e := lo; e < hi; e++ {
				p = append(p, pathcost.EdgeID(e))
			}
			for _, depart := range []float64{8 * 3600, 8*3600 + 300, 8*3600 + 100, 13 * 3600} {
				for _, m := range []pathcost.Method{pathcost.OD, pathcost.HP, pathcost.LB} {
					want, err := plain.PathDistribution(p, depart, m)
					if err != nil {
						t.Fatal(err)
					}
					got, err := withSyn.PathDistribution(p, depart, m)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Dist.Buckets(), want.Dist.Buckets()) {
						t.Fatalf("%s %v at %v: the file with a synopsis section answers differently", m, p, depart)
					}
				}
			}
		}
	}

	// Drop the last variable block before the section: the rank counts
	// no longer match, as for any truncated model.
	text := string(synBytes)
	section := strings.Index(text, "synopsis-v1 ")
	last := strings.LastIndex(text[:section], "var ")
	if _, err := pathcost.LoadSystem(g, nil, strings.NewReader(text[:last]+text[section:])); err == nil {
		t.Fatal("a model truncated before the synopsis section loaded")
	}
}
