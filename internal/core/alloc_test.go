package core

import (
	"testing"

	"repro/internal/graph"
)

// Hard allocation gates on the relay codec: a cross-shard query pays
// it twice per leg, so a per-cell or per-line allocation creeping back
// in multiplies straight into the sharded tier's request cost.
const (
	stateDecodeAllocBudget = 8
	stateDecodeByteBudget  = 2 << 10
	stateEncodeAllocBudget = 2
)

func TestChainStateCodecAllocBudget(t *testing.T) {
	st := syntheticRelayState(t, 24)
	enc, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := st.Encode(); err != nil {
			t.Fatal(err)
		}
	}); n > stateEncodeAllocBudget {
		t.Errorf("Encode allocates %v times per state, budget %d", n, stateEncodeAllocBudget)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeChainState(enc, 1); err != nil {
			t.Fatal(err)
		}
	}); n > stateDecodeAllocBudget {
		t.Errorf("DecodeChainState allocates %v times per state, budget %d", n, stateDecodeAllocBudget)
	}
	if per := allocBytesPerRun(200, func() {
		if _, err := DecodeChainState(enc, 1); err != nil {
			t.Fatal(err)
		}
	}); per > stateDecodeByteBudget {
		t.Errorf("DecodeChainState allocates %d bytes per %d-byte state, budget %d", per, len(enc), stateDecodeByteBudget)
	}
}

// coldEvaluateAllocBudget bounds one warm Evaluate of the 48-edge path
// of longChainFixture, per method. Every chain step builds its state
// and accumulator axis into a slot of the evaluation's pooled two-slot
// ring, products are values and the remap tables of an overlap's
// alignment are pooled, so what is left is the marginal and, under OD,
// the union grids of the two steps that keep a dimension: measured OD
// 5 and LB 3. While only fused steps used the ring (then an arena) and
// the first step and the steps that keep a dimension built a new
// state, axis and position list, it was OD 13 and LB 5; with a product
// on the heap and a new remap table per aligned side OD 34 and LB 6;
// the two-pass route, with a product, a folded state, an axis and a
// position list per step, took 185 and 195.
var coldEvaluateAllocBudget = map[Method]float64{MethodOD: 6, MethodLB: 4}

func TestColdEvaluateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch and rings at random")
	}
	h, p := longChainFixture(t)
	for _, m := range []Method{MethodOD, MethodLB} {
		de := decompose(t, h, p, 8*3600, m)
		n := testing.AllocsPerRun(100, func() {
			if _, _, err := h.Evaluate(de, p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d factors, %v allocations per Evaluate", m, len(de.Vars), n)
		if n > coldEvaluateAllocBudget[m] {
			t.Errorf("%s: a warm Evaluate of a %d-edge path allocates %v objects, budget %v", m, len(p), n, coldEvaluateAllocBudget[m])
		}
	}
}

// segmentAllocBudget bounds one shard leg's segment evaluation on the
// 48-edge path of longChainFixture cut in two, per leg kind, under OD:
// the memo-off first segment over edges 0–23 and a warm continuation
// over 24–47 from the first's relayed state, each result released
// once read, as the serving tier does. Both run the chain a cold
// Evaluate runs, into a pooled ring, so what is left is the
// decomposition, the union grids of the steps that keep a dimension
// and the result. Measured first 4, continuation 6 (its half holds the
// two steps that keep a dimension); 6 and 12 while those steps and the
// first built new states off the arena, a first segment extended edge
// by edge through the path-state evaluator took 254, and a
// continuation recycling nothing 136.
var segmentAllocBudget = map[string]float64{"first": 5, "continuation": 7}

func TestSegmentAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch and rings at random")
	}
	h, p := longChainFixture(t)
	const at = 8 * 3600
	opt := QueryOptions{Method: MethodOD}
	first := SegmentInput{Path: p[:24], Depart: at, UI: TimeInterval{Lo: at, Hi: at}, Opt: opt}
	r1, err := h.EvaluateSegment(nil, first)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := r1.State.Encode()
	if err != nil {
		t.Fatal(err)
	}
	relayed, err := DecodeChainState(enc, len(p)-24)
	if err != nil {
		t.Fatal(err)
	}
	cont := SegmentInput{Path: p[24:], Depart: at, UI: r1.UI, State: relayed, Opt: opt}
	for _, leg := range []struct {
		kind string
		in   SegmentInput
	}{{"first", first}, {"continuation", cont}} {
		n := testing.AllocsPerRun(100, func() {
			res, err := h.EvaluateSegment(nil, leg.in)
			if err != nil {
				t.Fatal(err)
			}
			res.State.Release()
		})
		t.Logf("%s segment: %v allocations per leg", leg.kind, n)
		if n > segmentAllocBudget[leg.kind] {
			t.Errorf("a warm %s segment of 24 edges allocates %v objects, budget %v", leg.kind, n, segmentAllocBudget[leg.kind])
		}
	}
}

// memoExtendAllocBudget bounds the memo's one write path on the Table 1
// fixture: a query for <e0..e3> that resumes from the memoized state of
// <e0,e1,e2> — the longest-prefix probe renders a key per depth it
// tries, missing at 4 and hitting at 3 — extends it by one edge and
// offers the new state under its key, the LRU entry included. Measured
// 14; 15 while a product was a heap object. While routing also read
// the memo, the budget bounded one memo-attached ExtendPath (probe,
// compute, offer) at 14.
const memoExtendAllocBudget = 15

func TestMemoExtendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled candidate arrays at random")
	}
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	opt := QueryOptions{Method: MethodOD}
	const dep = 8 * 3600
	prefix, query := graph.Path{0, 1, 2}, graph.Path{0, 1, 2, 3}
	parent, err := h.pathState(nil, nil, prefix, dep, opt)
	if err != nil {
		t.Fatal(err)
	}
	// One epoch view per run, each holding only the depth-3 prefix, so
	// every measured query resumes from it and offers one new state.
	const runs = 200
	base := NewConvMemo(1 << 12)
	views := make([]*ConvMemo, runs+1) // AllocsPerRun warms up with one extra call
	for i := range views {
		views[i] = base.ForEpoch(uint64(i))
		views[i].offer(prefix, dep, opt, parent)
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		r := views[i]
		i++
		if _, err := h.pathState(nil, r, query, dep, opt); err != nil {
			t.Fatal(err)
		}
	})
	if st := base.Stats(); st.Hits != runs+1 || st.Misses != 0 || st.Entries != 2*(runs+1) {
		t.Fatalf("the measured queries did not each resume from the prefix and offer one state: %+v", st)
	}
	t.Logf("a query resuming from a memoized prefix allocates %v objects", n)
	if n > memoExtendAllocBudget {
		t.Errorf("a query resuming from a memoized prefix allocates %v objects, budget %d", n, memoExtendAllocBudget)
	}
}
