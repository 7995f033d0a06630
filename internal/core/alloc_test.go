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

// memoExtendAllocBudget bounds one memo-attached ExtendPath that
// misses (probe, compute, offer) on the Table 1 fixture: 13 in all,
// the handle's two keys — rendered once, into one string the synopsis
// key is a suffix of — and its LRU entry included. It was 20 while the
// state kept its last factor's product (and the product's position
// list) and a decomposition took three allocations, 22 while the path
// key, the state key and its epoch-scoped form were three strings, and
// 23 before the entry points merged (the memo wrapper and the plain
// extend under it each built the extended path); the budget keeps any
// of them from coming back.
const memoExtendAllocBudget = 14

func TestMemoExtendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled candidate arrays at random")
	}
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := h.pathState(nil, nil, graph.Path{0, 1, 2}, 8*3600, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatal(err)
	}
	// One epoch view per run, so every measured extend is a miss.
	const runs = 200
	base := NewConvMemo(1 << 12)
	cold := make([]*Reuse, runs+1) // AllocsPerRun warms up with one extra call
	for i := range cold {
		cold[i] = NewReuse(nil, base.ForEpoch(uint64(i)))
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		r := cold[i]
		i++
		if _, err := h.ExtendPath(r, parent, 3); err != nil {
			t.Fatal(err)
		}
	})
	if st := base.Stats(); st.Hits != 0 || st.Entries != runs+1 {
		t.Fatalf("the measured extends were not all misses: %+v", st)
	}
	t.Logf("a memo-attached extend allocates %v objects", n)
	if n > memoExtendAllocBudget {
		t.Errorf("a memo-attached extend allocates %v objects, budget %d", n, memoExtendAllocBudget)
	}
}
