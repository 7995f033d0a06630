package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hist"
)

// This file is the differential oracle harness: a deliberately naive,
// obviously-correct implementation of the Equation 2 evaluation — no
// memo, no lazy marginals, no incremental resumption —
// against which every optimized evaluation path is checked for
// byte-identical output on randomly generated workloads. The naive
// evaluator applies the chain primitives (initialState, multiply,
// foldTo) in one straight-line loop, so anything the optimized paths
// add (prefix reuse, shared states, persisted states) must be
// observationally invisible.

// naiveDistribution evaluates query p departing at t the slow,
// transparent way.
func naiveDistribution(h *HybridGraph, p graph.Path, t float64, opt QueryOptions) (*hist.Histogram, error) {
	ca, err := h.BuildCandidateArray(p, t)
	if err != nil {
		return nil, err
	}
	var de *Decomposition
	switch opt.Method {
	case MethodOD, "":
		de = ca.CoarsestDecomposition(opt.RankCap)
	case MethodHP:
		de = ca.PairDecomposition()
	case MethodLB:
		de = ca.UnitDecomposition()
	default:
		return nil, nil
	}
	if err := de.Validate(p); err != nil {
		return nil, err
	}
	// Single factor covering the whole query: its own distribution is
	// the answer (mirrors Evaluate's "lucky" case).
	if len(de.Vars) == 1 {
		v := de.Vars[0]
		if v.Hist != nil {
			return v.Hist, nil
		}
		return v.Joint.SumHistogram(h.Params.MaxResultBuckets)
	}
	var state *chainState
	for i := range de.Vars {
		fm, err := asMulti(de.Vars[i])
		if err != nil {
			return nil, err
		}
		positions := factorPositions(de, i)
		if state == nil {
			state, err = initialState(fm, positions)
		} else {
			state, err = state.multiply(fm, positions, nil)
		}
		if err != nil {
			return nil, err
		}
		state, err = state.foldTo(overlapWithNext(de, i), h.Params.MaxAccBuckets)
		if err != nil {
			return nil, err
		}
	}
	return state.m.SumHistogram(h.Params.MaxResultBuckets)
}

// identicalHist reports bit-level equality of two histograms.
func identicalHist(a, b *hist.Histogram) bool {
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// oracleQueries derives a deterministic prefix-heavy query set from a
// workload's full chain path: every prefix of the chain, at a couple
// of departures.
func oracleQueries(g *graph.Graph, seed int64) ([]graph.Path, []float64) {
	full := make(graph.Path, g.NumEdges())
	for i := range full {
		full[i] = graph.EdgeID(i)
	}
	var paths []graph.Path
	for n := 1; n <= len(full); n++ {
		paths = append(paths, full[:n])
	}
	rnd := rand.New(rand.NewSource(seed))
	departs := []float64{8 * 3600, 8*3600 + float64(rnd.Intn(1200))}
	return paths, departs
}

// PROPERTY: on arbitrary random workloads, the plain and the memoized
// evaluation paths both reproduce the naive oracle bit for bit, for
// every incremental method, every prefix of the query chain, and
// repeated evaluation (warm states).
func TestOracleDifferentialByteIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		paths, departs := oracleQueries(g, seed)

		for _, method := range []Method{MethodOD, MethodHP, MethodLB} {
			opt := QueryOptions{Method: method}
			memo := NewConvMemo(256) // one memo over the whole query set
			for _, dep := range departs {
				for _, p := range paths {
					want, err := naiveDistribution(h, p, dep, opt)
					if err != nil {
						t.Logf("seed %d %s %v: naive: %v", seed, method, p, err)
						return false
					}
					for pass := 0; pass < 2; pass++ { // cold, then warm
						for name, got := range map[string]func() (*QueryResult, error){
							"plain": func() (*QueryResult, error) { return h.CostDistribution(p, dep, opt) },
							"memo":  func() (*QueryResult, error) { return h.CostDistributionMemo(memo, p, dep, opt) },
						} {
							res, err := got()
							if err != nil {
								t.Logf("seed %d %s %v %s: %v", seed, method, p, name, err)
								return false
							}
							if !identicalHist(want, res.Dist) {
								t.Logf("seed %d %s %v pass %d: %s diverged from naive oracle", seed, method, p, pass, name)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	cfg := fixedQuick(8, 4)
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Memo-backed answers on a saved and reloaded model match the oracle on
// the original bit for bit, cold and warm: the lossless model reader
// keeps every variable bit-identical.
func TestOracleByteIdentityAfterSaveLoad(t *testing.T) {
	g, data, params := randomWorkload(3)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHybrid(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	paths, departs := oracleQueries(g, 3)
	opt := QueryOptions{Method: MethodOD}
	memo := NewConvMemo(256)
	for pass := 0; pass < 2; pass++ {
		for _, dep := range departs {
			for _, p := range paths {
				want, err := naiveDistribution(h, p, dep, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h2.CostDistributionMemo(memo, p, dep, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !identicalHist(want, got.Dist) {
					t.Fatalf("pass %d: reloaded model diverged from naive oracle on %v@%v", pass, p, dep)
				}
			}
		}
	}
}

// Concurrent queries through one shared memo must match the oracle bit
// for bit; under -race this also proves the stored states are safely
// shareable.
func TestOracleConcurrentByteIdentity(t *testing.T) {
	g, data, params := randomWorkload(11)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	paths, departs := oracleQueries(g, 11)
	opt := QueryOptions{Method: MethodOD}
	want := make([]*hist.Histogram, len(paths))
	for i, p := range paths {
		if want[i], err = naiveDistribution(h, p, departs[0], opt); err != nil {
			t.Fatal(err)
		}
	}
	memo := NewConvMemo(128)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, p := range paths {
					res, err := h.CostDistributionMemo(memo, p, departs[0], opt)
					if err != nil {
						errs <- err
						return
					}
					if !identicalHist(want[i], res.Dist) {
						errs <- oracleMismatch(p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatalf("memo never hit under the concurrent workload: %+v", st)
	}
}

type oracleMismatch graph.Path

func (e oracleMismatch) Error() string {
	return "concurrent result diverged from naive oracle on " + graph.Path(e).String()
}
