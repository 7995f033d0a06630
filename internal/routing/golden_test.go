package routing

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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

// TestSearchGolden pins the absolute answers of the three searches over
// TestSettledSearchIdentical's methods and budget sweep: every path, the
// bits of every probability and distribution, BestPath's counters and
// every error text.
func TestSearchGolden(t *testing.T) {
	g, h := hybridFixture(t)
	checkGolden(t, "search.golden", searchGolden(t, g, New(h)))
}

// searchGolden renders what testdata/search.golden pins, answered by r.
func searchGolden(t *testing.T, g *graph.Graph, r *Router) []byte {
	src, dst, ff := pickQuery(t, g)
	var b bytes.Buffer
	ranked := func(what string, rs []TopKResult, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: %v\n", what, err)
			return
		}
		for i, x := range rs {
			fmt.Fprintf(&b, "%s[%d]: %v p %x dist %s\n", what, i, x.Path, x.Prob, distHash(x.Dist))
		}
	}
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		for _, f := range sweepBudgets {
			q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * f}
			opt := Options{Method: m}
			what := fmt.Sprintf("%s ×%.2f", m, f)
			if res, err := r.BestPath(q, opt); err != nil {
				fmt.Fprintf(&b, "%s best: %v\n", what, err)
			} else {
				fmt.Fprintf(&b, "%s best: %v p %x explored %d pruned %d dist %s\n",
					what, res.Path, res.Prob, res.Explored, res.Pruned, distHash(res.Dist))
			}
			top, err := r.TopKPaths(q, 3, opt)
			ranked(what+" top3", top, err)
			sky, err := r.SkylinePaths(q, 8, opt)
			ranked(what+" skyline8", sky, err)
		}
	}
	return b.Bytes()
}
