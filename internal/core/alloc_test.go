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
// of longChainFixture, per method. Nearly every chain step is a fused
// convolveFold whose state and accumulator axis live in the
// evaluation's pooled arena, so what is left is the first step, the
// marginal and, under OD, the two steps that keep a dimension (about
// fifteen each: remaps onto a union grid): OD 37 and LB 7. The
// two-pass route, with a product, a folded state, an axis and a
// position list per step, took 185 and 195.
var coldEvaluateAllocBudget = map[Method]float64{MethodOD: 40, MethodLB: 8}

func TestColdEvaluateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch and arenas at random")
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

// memoExtendAllocBudget bounds the memo's one write path on the Table 1
// fixture: a query for <e0..e3> that resumes from the memoized state of
// <e0,e1,e2> — the longest-prefix probe renders a key per depth it
// tries, missing at 4 and hitting at 3 — extends it by one edge and
// offers the new state under its key, the LRU entry included. Measured
// 15. While routing also read the memo, the budget bounded one
// memo-attached ExtendPath (probe, compute, offer) at 14.
const memoExtendAllocBudget = 16

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
