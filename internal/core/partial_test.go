package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hist"
)

// partitionedFixture builds the Table 1 model and filters it so no
// variable spans the cut between edges 2 and 3 — the shape a region
// partition guarantees. The cut splits the query path <e0..e4> into
// segments <e0,e1,e2> and <e3,e4>.
func partitionedFixture(t testing.TB) *HybridGraph {
	t.Helper()
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inSeg := func(p graph.Path, lo, hi graph.EdgeID) bool {
		for _, e := range p {
			if e < lo || e > hi {
				return false
			}
		}
		return true
	}
	return h.FilterVariables(func(v *Variable) bool {
		return inSeg(v.Path, 0, 2) || inSeg(v.Path, 3, 4)
	})
}

func TestChainStateEncodeDecodeRoundTrip(t *testing.T) {
	h := partitionedFixture(t)
	seg := graph.Path{0, 1, 2}
	depart := 8 * 3600.0
	res, err := h.EvaluateSegment(nil, SegmentInput{
		Path: seg, Depart: depart,
		UI: TimeInterval{Lo: depart, Hi: depart},
	})
	if err != nil {
		t.Fatalf("EvaluateSegment: %v", err)
	}
	if !res.State.AccOnly() {
		t.Fatalf("relay state has open dims %v, want acc-only", res.State.Open())
	}
	enc, err := res.State.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.HasPrefix(enc, []byte{'P', 'S', 'T', 2}) {
		t.Fatalf("encoding lacks magic and version: %q", enc[:min(len(enc), 40)])
	}
	dec, err := DecodeChainState(enc, len(seg))
	if err != nil {
		t.Fatalf("DecodeChainState: %v", err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode/decode/encode is not a fixed point:\n%s\nvs\n%s", enc, enc2)
	}
}

// TestEvaluateSegmentRelayMatchesWholePath is the exactness theorem
// behind the sharded tier: on a model where no variable spans the
// cut, relaying (state, UI) across the cut reproduces the whole-path
// evaluation bit for bit — same buckets, same decomposition shape.
func TestEvaluateSegmentRelayMatchesWholePath(t *testing.T) {
	h := partitionedFixture(t)
	full := graph.Path{0, 1, 2, 3, 4}
	segA, segB := graph.Path{0, 1, 2}, graph.Path{3, 4}
	depart := 8 * 3600.0

	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: m}
		whole, err := h.CostDistribution(full, depart, opt)
		if err != nil {
			t.Fatalf("%s: CostDistribution: %v", m, err)
		}

		r1, err := h.EvaluateSegment(nil, SegmentInput{
			Path: segA, Depart: depart,
			UI: TimeInterval{Lo: depart, Hi: depart}, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%s: first segment: %v", m, err)
		}
		// Round-trip the relay through its wire encoding, exactly as the
		// coordinator does between processes.
		enc, err := r1.State.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", m, err)
		}
		relay, err := DecodeChainState(enc, len(segB))
		if err != nil {
			t.Fatalf("%s: DecodeChainState: %v", m, err)
		}
		r2, err := h.EvaluateSegment(nil, SegmentInput{
			Path: segB, Depart: depart, UI: r1.UI, State: relay, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%s: continuation: %v", m, err)
		}
		dist, err := r2.State.Finalize(h.Params.MaxResultBuckets)
		if err != nil {
			t.Fatalf("%s: Finalize: %v", m, err)
		}
		if !reflect.DeepEqual(dist.Buckets(), whole.Dist.Buckets()) {
			t.Errorf("%s: composed distribution differs from whole-path:\n%v\nvs\n%v",
				m, dist.Buckets(), whole.Dist.Buckets())
		}
		if got, want := r1.Factors+r2.Factors, whole.Decomp.Cardinality(); got != want {
			t.Errorf("%s: segment factors sum to %d, whole decomposition has %d", m, got, want)
		}
		if got, want := max(r1.MaxRank, r2.MaxRank), whole.Decomp.MaxRank(); got != want {
			t.Errorf("%s: segment max rank %d, whole %d", m, got, want)
		}
	}
}

// TestEvaluateSegmentFirstUsesStores checks that a first segment with
// a memo answers byte-identically to the memo-free path —
// the store-equivalence guarantee extends to partial evaluation.
func TestEvaluateSegmentFirstUsesStores(t *testing.T) {
	h := partitionedFixture(t)
	seg := graph.Path{0, 1, 2}
	depart := 8 * 3600.0
	in := SegmentInput{Path: seg, Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart}}

	bare, err := h.EvaluateSegment(nil, in)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	memo := NewConvMemo(256)
	var warmed *SegmentResult
	for i := 0; i < 2; i++ { // second pass resumes from the memo
		warmed, err = h.EvaluateSegment(memo, in)
		if err != nil {
			t.Fatalf("memo pass %d: %v", i, err)
		}
	}
	be, _ := bare.State.Encode()
	we, _ := warmed.State.Encode()
	if !bytes.Equal(be, we) {
		t.Fatalf("memo-backed first segment diverged from bare evaluation")
	}
	if bare.UI != warmed.UI || bare.Factors != warmed.Factors || bare.MaxRank != warmed.MaxRank {
		t.Fatalf("segment metadata diverged: %+v vs %+v", bare, warmed)
	}
}

func TestEvaluateSegmentRejections(t *testing.T) {
	h := partitionedFixture(t)
	depart := 8 * 3600.0
	point := TimeInterval{Lo: depart, Hi: depart}
	relay := func() *ChainState {
		res, err := h.EvaluateSegment(nil, SegmentInput{Path: graph.Path{0, 1, 2}, Depart: depart, UI: point})
		if err != nil {
			t.Fatalf("building relay state: %v", err)
		}
		return res.State
	}()

	cases := []struct {
		name string
		in   SegmentInput
		want string
	}{
		{"empty", SegmentInput{Depart: depart, UI: point}, "empty segment"},
		{"invalid path", SegmentInput{Path: graph.Path{0, 3}, Depart: depart, UI: point}, "not a valid path"},
		{"rd", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: point, Opt: QueryOptions{Method: MethodRD}}, "cannot be evaluated segment by segment"},
		{"inverted ui", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: TimeInterval{Lo: 2, Hi: 1}}, "inverted departure interval"},
		{"first not point", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart + 60}}, "point interval"},
		{"unknown method", SegmentInput{Path: graph.Path{3, 4}, Depart: depart, UI: point, State: relay, Opt: QueryOptions{Method: "XX"}}, "unknown method"},
	}
	for _, tc := range cases {
		_, err := h.EvaluateSegment(nil, tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A continuation must start from an accumulator-only state.
	st, err := h.pathState(nil, nil, graph.Path{0, 1, 2}, depart, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatalf("pathState: %v", err)
	}
	pre, err := st.lastProduct(factorPositions(st.de, len(st.de.Vars)-1))
	if err != nil {
		t.Fatal(err)
	}
	open := &ChainState{cs: &pre}
	_, err = h.EvaluateSegment(nil, SegmentInput{
		Path: graph.Path{3, 4}, Depart: depart, UI: point, State: open,
	})
	if err == nil || !strings.Contains(err.Error(), "accumulator-only") {
		t.Errorf("open-dim continuation: got %v, want accumulator-only rejection", err)
	}
}

func TestDecodeChainStateRejectsGarbage(t *testing.T) {
	good, goodV1 := relayStateFixture(t)
	flip := func(off int, b byte) []byte {
		out := bytes.Clone(good)
		out[off] = b
		return out
	}
	// good is a one-dimension, two-boundary, one-cell state: header 5
	// bytes, boundary count at 5, boundaries at 7, cell count at 23,
	// the cell's index at 27 and its probability at 29.
	cases := map[string][]byte{
		"empty":             nil,
		"v1 wrong version":  []byte("pstate-v9\ns 0\n"),
		"v1 no state":       []byte(stateV1Version + "\n"),
		"v1 truncated":      goodV1[:len(goodV1)-len(goodV1)/3],
		"v1 whole":          goodV1, // the retired text format, well-formed
		"binary":            {0x00, 0xff, 0x13, 0x37},
		"html":              []byte("<html><body>502 Bad Gateway</body></html>"),
		"magic only":        []byte(stateMagic),
		"v2 wrong version":  flip(3, 9),
		"v2 header only":    good[:stateHeader],
		"v2 truncated":      good[:len(good)-3],
		"v2 trailing bytes": append(bytes.Clone(good), 0),
		"v2 open dims":      flip(4, hist.MaxDims),
		"v2 one boundary":   flip(5, 1),
		"v2 bounds overrun": flip(6, 0xff),
		"v2 nan boundary":   append(append(bytes.Clone(good[:7]), 1, 0, 0, 0, 0, 0, 0xf8, 0x7f), good[15:]...),
		"v2 equal bounds":   append(append(bytes.Clone(good[:15]), good[7:15]...), good[23:]...),
		"v2 zero cells":     flip(23, 0),
		"v2 cells overrun":  flip(26, 0xff),
		"v2 index range":    flip(27, 1),
		"v2 negative mass":  flip(36, 0xbf),
		"v2 unnormalized":   flip(35, 0xe0), // probability 0.5
	}
	for name, data := range cases {
		if _, err := DecodeChainState(data, 3); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeChainState(good, 3); err != nil {
		t.Fatalf("the unmodified state no longer decodes: %v", err)
	}
	if _, err := DecodeChainState(goodV1, 3); err == nil || !strings.Contains(err.Error(), "pstate-v2") {
		t.Errorf("v1 text dump: got %v, want an error naming the supported version", err)
	}
}

func TestFilterVariablesStableAndExact(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	keep := func(v *Variable) bool { return v.Path[0] <= 2 }
	f1 := h.FilterVariables(keep)
	f2 := h.FilterVariables(keep)

	f1.ForEachVariable(func(v *Variable) {
		if !keep(v) {
			t.Errorf("filtered model kept rejected variable %v", v.Path)
		}
	})
	total, kept, matched := 0, 0, 0
	h.ForEachVariable(func(v *Variable) {
		total++
		if keep(v) {
			matched++
		}
	})
	f1.ForEachVariable(func(*Variable) { kept++ })
	if kept != matched || kept == 0 || kept == total {
		t.Fatalf("filter kept %d of %d (predicate matches %d)", kept, total, matched)
	}

	var b1, b2 bytes.Buffer
	if err := f1.WriteModel(&b1); err != nil {
		t.Fatalf("serialize f1: %v", err)
	}
	if err := f2.WriteModel(&b2); err != nil {
		t.Fatalf("serialize f2: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("filtered model does not serialize byte-stably")
	}
}

// relayStateFixture returns the partitioned fixture's one relay state
// as the binary pstate-v2 this build reads and writes, and as the
// retired text pstate-v1 it must reject.
func relayStateFixture(t testing.TB) (v2, v1 []byte) {
	t.Helper()
	h := partitionedFixture(t)
	res, err := h.EvaluateSegment(nil, SegmentInput{
		Path: graph.Path{0, 1, 2}, Depart: 8 * 3600.0,
		UI: TimeInterval{Lo: 8 * 3600.0, Hi: 8 * 3600.0},
	})
	if err != nil {
		t.Fatalf("EvaluateSegment: %v", err)
	}
	if v2, err = res.State.Encode(); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if v1, err = EncodeStateV1(res.State); err != nil {
		t.Fatalf("EncodeStateV1: %v", err)
	}
	if len(v2) != 37 {
		t.Fatalf("fixture state is %d bytes, not the 37 of one dimension, two boundaries and one cell", len(v2))
	}
	return v2, v1
}
