package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// cutCtx is a context whose Err turns context.Canceled from its k+1st
// call on, cutting a chain before its k+1st factor.
type cutCtx struct {
	context.Context
	k, calls int
}

func (c *cutCtx) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// INVARIANT: a chain cut by its deadline gives back its storage. A
// memo-free CostDistributionCtx, a first EvaluateSegment and a
// continuation, each cut before every factor in turn, return the
// context's error; after each cut the same evaluation uncut, on the
// pooled rings and scratch the cut gave back (with release poisoning
// on), answers byte for byte what a never-cut run answered.
func TestCutChainReleasesStorage(t *testing.T) {
	h, p := longChainFixture(t)
	const at = 8 * 3600
	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: m}
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
		segment := func(in SegmentInput) func(context.Context) (string, error) {
			return func(ctx context.Context) (string, error) {
				in.Ctx = ctx
				res, err := h.EvaluateSegment(nil, in)
				if err != nil {
					return "", err
				}
				defer res.State.Release()
				b, err := res.State.Encode()
				return fmt.Sprintf("%x ui=%x,%x", b, math.Float64bits(res.UI.Lo), math.Float64bits(res.UI.Hi)), err
			}
		}
		evals := []struct {
			name string
			run  func(context.Context) (string, error)
		}{
			{"CostDistributionCtx", func(ctx context.Context) (string, error) {
				res, err := h.CostDistributionCtx(ctx, nil, p, at, opt)
				if err != nil {
					return "", err
				}
				return distHash(res.Dist), nil
			}},
			{"first segment", segment(first)},
			{"continuation", segment(cont)},
		}
		for _, ev := range evals {
			want, err := ev.run(nil)
			if err != nil {
				t.Fatalf("%s %s: %v", m, ev.name, err)
			}
			k := 0
			for ; ; k++ {
				got, err := ev.run(&cutCtx{Context: context.Background(), k: k})
				if err == nil {
					if got != want {
						t.Fatalf("%s %s: a run its context never cut differs from a never-cut one", m, ev.name)
					}
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s %s cut after %d checks: error %v, want the context's", m, ev.name, k, err)
				}
				if again, err := ev.run(nil); err != nil || again != want {
					t.Fatalf("%s %s: after a cut after %d checks, the uncut evaluation differs (err %v)", m, ev.name, k, err)
				}
			}
			if k < 2 {
				t.Fatalf("%s %s: cut at only %d points; the test is vacuous", m, ev.name, k)
			}
		}
		relayed.Release()
		r1.State.Release()
	}
}
