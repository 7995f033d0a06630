package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/hist"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// distHash is an FNV-64a over the bits of every bucket's bounds and
// mass: two distributions share it only if they agree bit for bit.
func distHash(d *hist.Histogram) string {
	f := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		f.Write(b[:])
	}
	for _, bk := range d.Buckets() {
		put(bk.Lo)
		put(bk.Hi)
		put(bk.Pr)
	}
	return fmt.Sprintf("%016x/%d", f.Sum64(), d.NumBuckets())
}

// TestEvalGolden pins the absolute answers of every evaluation entry
// point on 20 random paths of a braided network, for every method:
// CostDistribution, CostDistributionMemo cold and warm (one memo per
// method across all paths), and a two-segment EvaluateSegment relay
// whose continuation multiplies onto the first segment's state. Each
// line carries the decomposition shape and the bits of the answer, or
// the error text.
func TestEvalGolden(t *testing.T) {
	g, data, params := braidWorkload(4)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(20))
	paths := make([]graph.Path, 20)
	for i := range paths {
		paths[i] = randomPath(rnd, g, 9)
	}
	const depart = 8*3600 + 240.0
	var b bytes.Buffer
	answer := func(what string, res *QueryResult, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: %v\n", what, err)
			return
		}
		fmt.Fprintf(&b, "%s: factors %d rank %d dist %s\n", what, res.Decomp.Cardinality(), res.Decomp.MaxRank(), distHash(res.Dist))
	}
	for _, m := range []Method{MethodOD, MethodHP, MethodLB, MethodRD} {
		opt := QueryOptions{Method: m, Seed: 7}
		memo := NewConvMemo(64)
		for i, p := range paths {
			what := fmt.Sprintf("%s %d %v", m, i, p)
			res, err := h.CostDistribution(p, depart, opt)
			answer(what+" plain", res, err)
			res, err = h.CostDistributionMemo(memo, p, depart, opt)
			answer(what+" memo-cold", res, err)
		}
		for i, p := range paths {
			res, err := h.CostDistributionMemo(memo, p, depart, opt)
			answer(fmt.Sprintf("%s %d %v memo-warm", m, i, p), res, err)
		}
		for i, p := range paths {
			what := fmt.Sprintf("%s %d %v relay", m, i, p)
			if len(p) < 2 {
				continue
			}
			cut := len(p) / 2
			r1, err := h.EvaluateSegment(nil, SegmentInput{
				Path: p[:cut], Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart}, Opt: opt,
			})
			if err != nil {
				fmt.Fprintf(&b, "%s: %v\n", what, err)
				continue
			}
			r2, err := h.EvaluateSegment(nil, SegmentInput{
				Path: p[cut:], Depart: depart, UI: r1.UI, State: r1.State, Opt: opt,
			})
			if err != nil {
				fmt.Fprintf(&b, "%s: %v\n", what, err)
				continue
			}
			dist, err := r2.State.Finalize(h.Params.MaxResultBuckets)
			if err != nil {
				fmt.Fprintf(&b, "%s: %v\n", what, err)
				continue
			}
			fmt.Fprintf(&b, "%s: factors %d+%d ui %x..%x dist %s\n", what, r1.Factors, r2.Factors, r2.UI.Lo, r2.UI.Hi, distHash(dist))
		}
	}
	checkGolden(t, "eval.golden", b.Bytes())
}
