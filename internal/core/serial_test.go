package core

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"os"
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

// A valid one-variable model on a chain: MaxRank 4, one rank-1 variable.
const tinyModel = "hybridgraph-v1\nparams 30 30 4 1 0 48 64 0 5 1800\nstats 1 1 3 30 1 0 0 0\nvar 0 16 30 1 2\nh 1 1 2 1\n"

// garbageModels are model files ReadHybrid must reject with an error:
// never a panic, never a model with a made-up number in it.
var garbageModels = []string{
	"",
	"not-a-model\n",
	"hybridgraph-v1\nbogus\n",
	"hybridgraph-v1\nparams 30 30 4 1 0 48 64 0 5 1800\nstats 1 1 1 1 1 0 0 0\nvar xyz 16 30 1 2\n",
	"hybridgraph-v1\nparams 30 30 4 1 0 48 64 0 5 1800\nstats 1 1 1 1 1 0 0 0\nvar 0 16 30 1 2\nh 1 5 4 1\n",
	"hybridgraph-v1\nparams 0 0 0 0 0 0 0 0 0 0\n",
	// A stats line with no per-rank counts.
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30", 1),
	// More rank counts than MaxRank.
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 0 0 0 0", 1),
	// Garbage, NaN and infinite numbers in every kind of record.
	strings.Replace(tinyModel, "var 0 16 30", "var 0 junk 30", 1),
	strings.Replace(tinyModel, "var 0 16 30 1 2", "var 0 16 30 NaN 2", 1),
	strings.Replace(tinyModel, "var 0 16 30 1 2", "var 0 16 30 1 +Inf", 1),
	strings.Replace(tinyModel, "var 0 16 30", "var 0 16 3x0", 1),
	strings.Replace(tinyModel, "params 30 30 4 1 0", "params 30 30 4 1 zero", 1),
	strings.Replace(tinyModel, "params 30 30 4 1 0", "params 30 30 4 NaN 0", 1),
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 one 0 0 0", 1),
	strings.Replace(tinyModel, "h 1 1 2 1", "h 1 1 2 NaN", 1),
	strings.Replace(tinyModel, "h 1 1 2 1", "h one 1 2 1", 1),
	// An interval outside the day, and a variable stored twice.
	strings.Replace(tinyModel, "var 0 16 30", "var 0 48 30", 1),
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 2 0 0 0", 1) + "var 0 16 30 1 2\nh 1 1 2 1\n",
	// A variable longer than MaxRank, and a rank-2 variable stored as a
	// histogram.
	"hybridgraph-v1\nparams 30 30 1 1 0 48 64 0 5 1800\nstats 1 1 3 30 1\nvar 0,1 16 30 1 2\nm 2\nb 2 0 1\nb 2 0 1\nc 1\n0 0 1\n",
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nh 1 1 2 1\n",
	// Joints: wrong dimension count, garbage bound, index and mass,
	// negative mass.
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nm 3\nb 2 0 1\nb 2 0 1\nb 2 0 1\nc 1\n0 0 0 1\n",
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nm 2\nb 2 0 x\nb 2 0 1\nc 1\n0 0 1\n",
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nm 2\nb 2 0 1\nb 2 0 1\nc 1\nx 0 1\n",
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nm 2\nb 2 0 1\nb 2 0 1\nc 1\n0 0 NaN\n",
	strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1) + "var 0,1 16 30 1 2\nm 2\nb 2 0 1\nb 3 0 1 2\nc 2\n0 0 -1\n0 1 2\n",
}

func TestReadHybridRejectsGarbage(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := ReadHybrid(strings.NewReader(tinyModel), g); err != nil {
		t.Fatalf("the valid base model: %v", err)
	}
	if _, err := ReadHybrid(strings.NewReader(strings.Replace(tinyModel, "stats 1 1 3 30 1 0 0 0", "stats 1 1 3 30 1 1 0 0", 1)+"var 0,1 16 30 1 2\nm 2\nb 2 0 1\nb 3 0 1 2\nc 2\n0 0 0.5\n0 1 0.5\n"), g); err != nil {
		t.Fatalf("the valid base model with a joint: %v", err)
	}
	for i, c := range garbageModels {
		if _, err := ReadHybrid(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d: garbage accepted:\n%s", i, c)
		}
	}
}

// A plain model must round-trip byte-identically — write → read → write
// reproduces the file exactly, because the reader validates instead of
// renormalizing — and the table-1 model is the checked-in file.
func TestPlainModelRoundTripByteIdentical(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := h.WriteModel(&buf1); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHybrid(bytes.NewReader(buf1.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := h2.WriteModel(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("plain model write→read→write is not byte-identical")
	}
	golden, err := os.ReadFile("testdata/table1.model")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), golden) {
		t.Fatal("the table-1 model differs from testdata/table1.model")
	}
}

// FuzzReadModel feeds the model reader arbitrary bytes — the daemon's
// -model file and the shard model files are outside input. It must
// never panic, and whatever loads must write back to a fixed point:
// WriteModel → ReadHybrid → WriteModel reproduces the first write.
func FuzzReadModel(f *testing.F) {
	g, data, params := table1Fixture(f)
	h, err := Build(g, data, params)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	compat, err := os.ReadFile("testdata/table1-synopsis-v1.model")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compat)
	f.Add([]byte(tinyModel))
	for _, c := range garbageModels {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h1, err := ReadHybrid(bytes.NewReader(in), g)
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := h1.WriteModel(&w1); err != nil {
			t.Fatalf("a loaded model does not write: %v", err)
		}
		h2, err := ReadHybrid(bytes.NewReader(w1.Bytes()), g)
		if err != nil {
			t.Fatalf("a written model does not load: %v\n%s", err, w1.Bytes())
		}
		if err := h2.WriteModel(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write → read → write moved the file:\n%s\n---\n%s", w1.Bytes(), w2.Bytes())
		}
	})
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
