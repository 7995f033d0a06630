package core_test

import (
	"bytes"
	"fmt"
	"testing"

	pathcost "repro"
	"repro/internal/core"
)

// segmentLeg is one relay of the segment differential: a path of the
// equivalence suite cut in two at one position, under one method.
type segmentLeg struct {
	name        string
	first, rest pathcost.Path
	opt         pathcost.QueryOptions
}

// legAnswer is what a leg's two segments answer: each state's
// encoding, and each result's interval and decomposition shape.
type legAnswer struct {
	first, cont         []byte
	firstMeta, contMeta core.SegmentResult // State left nil
	err                 error
}

// segmentLegs cuts every path the equivalence suite queries at every
// position, under every composable method.
func segmentLegs(tb testing.TB, sys *pathcost.System) []segmentLeg {
	tb.Helper()
	var legs []segmentLeg
	for _, k := range []int{2, 3, 4} {
		for i, p := range equivalencePaths(tb, sys, k) {
			for cut := 1; cut < len(p); cut++ {
				for _, m := range []pathcost.Method{pathcost.OD, pathcost.HP, pathcost.LB} {
					legs = append(legs, segmentLeg{
						name:  fmt.Sprintf("k=%d path %d cut %d/%d %s", k, i, cut, len(p), m),
						first: p[:cut], rest: p[cut:], opt: pathcost.QueryOptions{Method: m},
					})
				}
			}
		}
	}
	return legs
}

// relay runs the leg the way a coordinator and two shards do: the first
// segment from the point departure interval, its state through the
// wire format into the continuation. With release set, every state is
// released after its last read, as the serving tier releases them: a
// result once encoded, a decoded state once evaluated from. Without, it
// returns the continuation's state, unreleased.
func (l segmentLeg) relay(tb testing.TB, eval func(core.SegmentInput) (*core.SegmentResult, error), release bool) (legAnswer, *core.ChainState) {
	tb.Helper()
	var a legAnswer
	r1, err := eval(core.SegmentInput{
		Path: l.first, Depart: relayDepart,
		UI: core.TimeInterval{Lo: relayDepart, Hi: relayDepart}, Opt: l.opt,
	})
	if err != nil {
		a.err = err
		return a, nil
	}
	a.first = encodeState(tb, l.name, r1.State)
	if release {
		r1.State.Release()
	}
	a.firstMeta = core.SegmentResult{UI: r1.UI, Factors: r1.Factors, MaxRank: r1.MaxRank}
	dec, err := core.DecodeChainState(a.first, len(l.rest))
	if err != nil {
		tb.Fatalf("%s: decoding the relayed state: %v", l.name, err)
	}
	r2, err := eval(core.SegmentInput{
		Path: l.rest, Depart: relayDepart, UI: r1.UI, State: dec, Opt: l.opt,
	})
	if release {
		dec.Release()
	}
	if err != nil {
		a.err = err
		return a, nil
	}
	a.cont = encodeState(tb, l.name, r2.State)
	a.contMeta = core.SegmentResult{UI: r2.UI, Factors: r2.Factors, MaxRank: r2.MaxRank}
	if release {
		r2.State.Release()
		return a, nil
	}
	return a, r2.State
}

func encodeState(tb testing.TB, name string, st *core.ChainState) []byte {
	tb.Helper()
	enc, err := st.Encode()
	if err != nil {
		tb.Fatalf("%s: encoding a state: %v", name, err)
	}
	return enc
}

// sameAnswer fails unless two answers of the leg are byte for byte the
// same, errors included.
func sameAnswer(tb testing.TB, what string, l segmentLeg, got, want legAnswer) {
	tb.Helper()
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		tb.Fatalf("%s: %s: error %v, want %v", l.name, what, got.err, want.err)
	}
	if !bytes.Equal(got.first, want.first) {
		tb.Fatalf("%s: %s: first segment's state differs:\n%x\nvs\n%x", l.name, what, got.first, want.first)
	}
	if !bytes.Equal(got.cont, want.cont) {
		tb.Fatalf("%s: %s: continuation's state differs:\n%x\nvs\n%x", l.name, what, got.cont, want.cont)
	}
	if got.firstMeta != want.firstMeta || got.contMeta != want.contMeta {
		tb.Fatalf("%s: %s: metadata differs: %+v %+v vs %+v %+v", l.name, what,
			got.firstMeta, got.contMeta, want.firstMeta, want.contMeta)
	}
}

// recycleLag is how many further legs run, recycling the pools, before
// a leg is relayed again and a state it kept is read again.
const recycleLag = 50

// TestSegmentDifferentialUnderRecycling holds memo-free segment
// evaluation — a cold first segment on one recycled chain, a
// continuation into a ring, every state released after its last read
// — to ScratchSegment, which evaluates a first segment edge by edge
// through the path-state evaluator and recycles nothing: for every path
// of the sharded tier's equivalence suite, cut at every position, under
// OD, HP and LB, both segments' states are byte-identical. In a test
// binary every release poisons what it recycles, so a state read after
// its storage went back shows. Each relay runs again once recycleLag
// more legs have recycled the pools, and must answer the same bytes;
// a continuation state kept unreleased over those legs must still
// encode as it did.
func TestSegmentDifferentialUnderRecycling(t *testing.T) {
	sys := equivalenceSystem(t)
	h := sys.Hybrid()
	cold := func(in core.SegmentInput) (*core.SegmentResult, error) { return h.EvaluateSegment(nil, in) }
	scratch := func(in core.SegmentInput) (*core.SegmentResult, error) { return core.ScratchSegment(h, in) }

	legs := segmentLegs(t, sys)
	want := make([]legAnswer, len(legs))
	kept := make([]*core.ChainState, len(legs))
	relayed := 0
	for i, l := range legs {
		want[i], _ = l.relay(t, scratch, false)
		if want[i].err == nil {
			relayed++
		}
		got, _ := l.relay(t, cold, true)
		sameAnswer(t, "recycled vs scratch", l, got, want[i])
		_, kept[i] = l.relay(t, cold, false)
		if j := i - recycleLag; j >= 0 {
			again, _ := legs[j].relay(t, cold, true)
			sameAnswer(t, fmt.Sprintf("relayed again after %d legs", recycleLag), legs[j], again, want[j])
			if kept[j] != nil {
				if enc := encodeState(t, legs[j].name, kept[j]); !bytes.Equal(enc, want[j].cont) {
					t.Fatalf("%s: a continuation state kept unreleased changed over %d legs:\n%x\nvs\n%x",
						legs[j].name, recycleLag, enc, want[j].cont)
				}
				kept[j].Release()
			}
		}
	}
	if len(legs) <= recycleLag || relayed < len(legs)/2 {
		t.Fatalf("%d legs, %d relayed without error: the differential is vacuous", len(legs), relayed)
	}
	t.Logf("%d legs, %d relayed without error, each relayed again after %d more", len(legs), relayed, recycleLag)
}

// TestSegmentReleaseLeavesMemoStatesIntact: with the memo on, a first
// segment's state is the memo's, shared with every later query that
// resumes from it, so the Release the serving tier calls on each result
// must leave it alone. Every leg is relayed with every state released;
// then each first segment, answered again from the memo, and each whole
// path, resuming from its first segment's memoized state, must answer
// what the memo-free scratch evaluation does.
func TestSegmentReleaseLeavesMemoStatesIntact(t *testing.T) {
	sys := equivalenceSystem(t)
	h := sys.Hybrid()
	memo := core.NewConvMemo(1 << 14)
	onMemo := func(in core.SegmentInput) (*core.SegmentResult, error) { return h.EvaluateSegment(memo, in) }
	scratch := func(in core.SegmentInput) (*core.SegmentResult, error) { return core.ScratchSegment(h, in) }

	legs := segmentLegs(t, sys)
	for _, l := range legs {
		l.relay(t, onMemo, true)
	}
	hits := memo.Stats().Hits
	for _, l := range legs {
		got, _ := l.relay(t, onMemo, true)
		want, _ := l.relay(t, scratch, false)
		sameAnswer(t, "memo-resumed vs scratch", l, got, want)

		whole := append(l.first[:len(l.first):len(l.first)], l.rest...)
		in := core.SegmentInput{Path: whole, Depart: relayDepart,
			UI: core.TimeInterval{Lo: relayDepart, Hi: relayDepart}, Opt: l.opt}
		rg, errG := onMemo(in)
		rw, errW := scratch(in)
		if errG != nil || errW != nil {
			t.Fatalf("%s whole path: %v, %v", l.name, errG, errW)
		}
		if g, w := encodeState(t, l.name, rg.State), encodeState(t, l.name, rw.State); !bytes.Equal(g, w) {
			t.Fatalf("%s whole path: resumed from a memoized prefix, the state differs:\n%x\nvs\n%x", l.name, g, w)
		}
		rg.State.Release()
	}
	if memo.Stats().Hits == hits {
		t.Fatal("no query resumed from the memo: the test is vacuous")
	}
}
