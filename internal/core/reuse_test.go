package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/hist"
)

// probeCounts is what the two tiers of one handle have counted.
type probeCounts struct {
	synHits, synMisses   uint64
	memoHits, memoMisses uint64
	memoEntries          int
}

func countsOf(r *Reuse) probeCounts {
	var c probeCounts
	if s := r.Synopsis(); s != nil {
		st := s.Stats()
		c.synHits, c.synMisses = st.Hits, st.Misses
	}
	if m := r.Memo(); m != nil {
		st := m.Stats()
		c.memoHits, c.memoMisses, c.memoEntries = st.Hits, st.Misses, st.Entries
	}
	return c
}

// TestReuseOneProbe drives every query-level operation that reads the
// reuse handle — the path-state evaluator, the cost distribution over
// it and the first segment of a partitioned query — through every tier
// combination, twice (cold tiers, then warm), and holds each to
// byte-identical answers against plain evaluation and to the exact
// probe counters: one synopsis hit-or-miss and at most one memo
// hit-or-miss per logical query. The fixture is the one the synopsis
// and memo suites use: the five-edge chain, a synopsis holding only its
// depth-3 prefix.
func TestReuseOneProbe(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	dep := 8 * 3600.0
	opt := QueryOptions{Method: MethodOD}

	tiers := map[string]func() *Reuse{
		"none": func() *Reuse { return nil },
		"syn": func() *Reuse {
			syn, err := h.BuildSynopsis([]WorkloadQuery{{Path: full[:3], Depart: dep}}, SynopsisConfig{MaxEntries: 1, MinDepth: 3})
			if err != nil || syn.Len() != 1 {
				t.Fatalf("fixture synopsis: %v, %d entries", err, syn.Len())
			}
			return NewReuse(syn, nil)
		},
		"memo": func() *Reuse { return NewReuse(nil, NewConvMemo(64).ForEpoch(7)) },
	}
	tiers["both"] = func() *Reuse { return tiers["syn"]().WithMemo(tiers["memo"]().Memo()) }

	// Each operation answers with something comparable byte for byte.
	ops := map[string]func(r *Reuse) any{
		"path state": func(r *Reuse) any {
			st, err := h.pathState(context.Background(), r, full, dep, opt)
			if err != nil {
				t.Fatal(err)
			}
			return distBuckets(t, st)
		},
		"cost distribution": func(r *Reuse) any {
			res, err := h.CostDistributionCtx(nil, r, full, dep, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.Dist.Buckets()
		},
		"first segment": func(r *Reuse) any {
			res, err := h.EvaluateSegment(r, SegmentInput{Path: full, Depart: dep, UI: TimeInterval{Lo: dep, Hi: dep}, Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			enc, err := res.State.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return enc
		},
	}

	// Expected counters after the cold and after the warm pass. Each
	// operation counts once per query: cold, the base is the synopsis's
	// depth-3 state (no memo count at all) or nothing (one memo miss);
	// warm, the memo holds the full path, so the synopsis counts a miss
	// and the memo a hit.
	want := map[string][2]probeCounts{
		"syn":  {{synHits: 1}, {synHits: 2}},
		"memo": {{memoMisses: 1, memoEntries: 5}, {memoHits: 1, memoMisses: 1, memoEntries: 5}},
		"both": {{synHits: 1, memoEntries: 2}, {synHits: 1, synMisses: 1, memoHits: 1, memoEntries: 2}},
	}

	for opName, op := range ops {
		plain := op(nil)
		for tierName, mk := range tiers {
			r := mk()
			for pass, passName := range []string{"cold", "warm"} {
				if got := op(r); !reflect.DeepEqual(got, plain) {
					t.Errorf("%s / %s / %s: answer differs from plain evaluation", opName, tierName, passName)
				}
				if got, want := countsOf(r), want[tierName][pass]; got != want {
					t.Errorf("%s / %s / %s: counters %+v, want %+v", opName, tierName, passName, got, want)
				}
			}
		}
	}

	t.Run("synopsis wins at equal depth", func(t *testing.T) {
		r := tiers["both"]()
		// Fill the memo with every prefix, the synopsis's depth 3 included.
		if _, err := h.pathState(nil, NewReuse(nil, r.Memo()), full, dep, opt); err != nil {
			t.Fatal(err)
		}
		before := countsOf(r)
		st, err := h.pathState(nil, r, full[:3], dep, opt)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := r.Synopsis().peek(memoKey(full[:3].Key(), dep, opt))
		after := countsOf(r)
		if st != stored {
			t.Error("the base came from the memo, not the synopsis")
		}
		before.synHits++
		if after != before {
			t.Errorf("counters %+v, want %+v (one synopsis hit, the memo untouched)", after, before)
		}
	})

	t.Run("RD bypasses both", func(t *testing.T) {
		r := tiers["both"]()
		rd := QueryOptions{Method: MethodRD, Seed: 7}
		got, err := h.CostDistributionCtx(nil, r, full, dep, rd)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := h.CostDistribution(full, dep, rd)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Dist.Buckets(), plain.Dist.Buckets()) {
			t.Error("RD through a handle differs from plain RD")
		}
		if c := countsOf(r); c != (probeCounts{}) {
			t.Errorf("RD touched a tier: %+v", c)
		}
	})

	t.Run("epoch views are disjoint", func(t *testing.T) {
		base := NewConvMemo(64)
		e1, e2 := NewReuse(nil, base.ForEpoch(1)), NewReuse(nil, base.ForEpoch(2))
		s1, err := h.pathState(nil, e1, full, dep, opt)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := h.pathState(nil, e2, full, dep, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s1 == s2 {
			t.Fatal("epoch 2 was answered with epoch 1's state")
		}
		// The views share one LRU and its counters: two cold misses, ten
		// entries; each view then hits its own entry.
		if c := countsOf(e2); c != (probeCounts{memoMisses: 2, memoEntries: 10}) {
			t.Fatalf("after one cold query per epoch: %+v", c)
		}
		for _, r := range []*Reuse{e1, e2} {
			again, err := h.pathState(nil, r, full, dep, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[*Reuse]*PathState{e1: s1, e2: s2}[r]; again != want {
				t.Error("a view resumed from the other epoch's entry")
			}
		}
		// NextEpoch moves a handle's memo to the new key space.
		e3, _ := e2.NextEpoch(3, h, func(graph.Path) bool { return false })
		if s3, err := h.pathState(nil, e3, full, dep, opt); err != nil || s3 == s2 {
			t.Errorf("the next epoch's handle read the previous epoch's entry (err %v)", err)
		}
	})
}

func distBuckets(t *testing.T, st *PathState) []hist.Bucket {
	t.Helper()
	d, err := st.DistErr()
	if err != nil {
		t.Fatal(err)
	}
	return d.Buckets()
}
