package core

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestModelRoundTrip(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHybrid(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	// Same statistics.
	if h2.Stats().TotalVariables() != h.Stats().TotalVariables() {
		t.Fatalf("variables: %d vs %d", h2.Stats().TotalVariables(), h.Stats().TotalVariables())
	}
	if h2.Stats().CoveredEdges != h.Stats().CoveredEdges {
		t.Fatal("covered edges differ")
	}
	if h2.Params.Beta != h.Params.Beta || h2.Params.AlphaMinutes != h.Params.AlphaMinutes {
		t.Fatal("params differ")
	}
	// Same query answers.
	query := graph.Path{0, 1, 2, 3, 4}
	depart := 8*3600 + 300.0
	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		a, err1 := h.CostDistribution(query, depart, QueryOptions{Method: m})
		b, err2 := h2.CostDistribution(query, depart, QueryOptions{Method: m})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", m, err1, err2)
		}
		if math.Abs(a.Dist.Mean()-b.Dist.Mean()) > 1e-9 {
			t.Fatalf("%s: mean %v vs %v after round trip", m, a.Dist.Mean(), b.Dist.Mean())
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if math.Abs(a.Dist.Quantile(q)-b.Dist.Quantile(q)) > 1e-9 {
				t.Fatalf("%s: quantile %v differs after round trip", m, q)
			}
		}
	}
	// Same decomposition structure.
	ca1, _ := h.BuildCandidateArray(query, depart)
	ca2, _ := h2.BuildCandidateArray(query, depart)
	d1 := ca1.CoarsestDecomposition(0)
	d2 := ca2.CoarsestDecomposition(0)
	if d1.Cardinality() != d2.Cardinality() || d1.MaxRank() != d2.MaxRank() {
		t.Fatal("decomposition structure differs after round trip")
	}
}

func TestReadHybridRejectsWrongGraph(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	// A 3-edge chain cannot hold paths over edges 3, 4.
	small := chainGraph(t, 2)
	if _, err := ReadHybrid(bytes.NewReader(buf.Bytes()), small); err == nil {
		t.Fatal("model loaded against an incompatible graph")
	}
}

func TestReadHybridRejectsGarbage(t *testing.T) {
	g := chainGraph(t, 3)
	cases := []string{
		"",
		"not-a-model\n",
		"hybridgraph-v1\nbogus\n",
		"hybridgraph-v1\nparams 30 30 4 1 0 48 64 0 5 1800\nstats 1 1 1 1 1\nvar xyz 16 30 1 2\n",
		"hybridgraph-v1\nparams 30 30 4 1 0 48 64 0 5 1800\nstats 1 1 1 1 1\nvar 0 16 30 1 2\nh 1 5 4 1\n",
		"hybridgraph-v1\nparams 0 0 0 0 0 0 0 0 0 0\n",
	}
	for i, c := range cases {
		if _, err := ReadHybrid(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestModelRoundTripDetectsCorruption(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Drop the last variable block: rank counts no longer match.
	text := buf.String()
	idx := strings.LastIndex(text, "var ")
	if idx < 0 {
		t.Fatal("no var records")
	}
	if _, err := ReadHybrid(strings.NewReader(text[:idx]), g); err == nil {
		t.Fatal("truncated model accepted")
	}
}

// TestReadHybridLineLengthCap: the loader's scanner starts small and
// grows, and must still accept what the fixed 1 MiB buffer accepted —
// a line just under the cap loads, one over it fails as before.
func TestReadHybridLineLengthCap(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Fields are whitespace-separated, so padding a record keeps its
	// meaning and makes its line as long as wanted.
	padded := func(n int) string {
		return strings.Replace(buf.String(), "var ", "var "+strings.Repeat(" ", n), 1)
	}
	h2, err := ReadHybrid(strings.NewReader(padded(900<<10)), g)
	if err != nil {
		t.Fatalf("model with a 900 KiB line: %v", err)
	}
	if got, want := h2.Stats().TotalVariables(), h.Stats().TotalVariables(); got != want {
		t.Fatalf("model with a 900 KiB line loaded %d variables, want %d", got, want)
	}
	if _, err := ReadHybrid(strings.NewReader(padded(1<<20)), g); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("model with a line over 1 MiB: %v, want bufio.ErrTooLong", err)
	}
}
