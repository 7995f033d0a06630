package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	pathcost "repro"
	"repro/internal/core"
	"repro/internal/shard"
)

// relayHop is one state hand-over of a sharded query: what the
// previous shard answered, and the segment the next shard resumes
// with.
type relayHop struct {
	name  string
	state *core.ChainState
	ui    pathcost.TimeInterval
	seg   pathcost.Path
	next  *pathcost.System
	opt   pathcost.QueryOptions
}

const relayDepart = 8 * 3600.0

// relayHops walks the workload of the sharded tier's equivalence suite
// (internal/shard's TestCoordinatorByteIdenticalToUnion: same model,
// same 2/3/4-way partitions, same paths, every composable method) the
// way the coordinator does, and returns every hand-over on the way.
func relayHops(tb testing.TB) []relayHop {
	tb.Helper()
	sys := equivalenceSystem(tb)
	var hops []relayHop
	for _, k := range []int{2, 3, 4} {
		part, err := shard.NewPartition(sys.Graph, k, sys.Params)
		if err != nil {
			tb.Fatalf("k=%d: NewPartition: %v", k, err)
		}
		split, err := shard.SplitModel(sys, part)
		if err != nil {
			tb.Fatalf("k=%d: SplitModel: %v", k, err)
		}
		for i, p := range equivalencePaths(tb, sys, k) {
			segs := part.SegmentPath(sys.Graph, p)
			for _, m := range []pathcost.Method{pathcost.OD, pathcost.HP, pathcost.LB} {
				opt := pathcost.QueryOptions{Method: m}
				res, err := split.Shards[segs[0].Region].EvaluateSegment(pathcost.SegmentInput{
					Path: segs[0].Path, Depart: relayDepart,
					UI: pathcost.TimeInterval{Lo: relayDepart, Hi: relayDepart}, Opt: opt,
				})
				// An evaluation error ends the relay: sparse coverage, which
				// the tier answers with a 422.
				for s := 1; err == nil && s < len(segs); s++ {
					hop := relayHop{
						name:  fmt.Sprintf("k=%d path %d %s segment %d", k, i, m, s),
						state: res.State, ui: res.UI,
						seg: segs[s].Path, next: split.Shards[segs[s].Region], opt: opt,
					}
					hops = append(hops, hop)
					res, err = hop.resume(tb, (*core.ChainState).Encode)
				}
			}
		}
	}
	if len(hops) == 0 {
		tb.Fatal("workload relayed no state: the tests over it are vacuous")
	}
	return hops
}

// equivalenceSystem trains the model of the sharded tier's equivalence
// suite (internal/shard's testSystem).
func equivalenceSystem(tb testing.TB) *pathcost.System {
	tb.Helper()
	params := pathcost.DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test", Trips: 3000, Seed: 11, Params: params,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// equivalencePaths samples the 30 paths the equivalence suite queries
// on its k-way partition.
func equivalencePaths(tb testing.TB, sys *pathcost.System, k int) []pathcost.Path {
	tb.Helper()
	rnd := rand.New(rand.NewSource(int64(100 + k)))
	paths := make([]pathcost.Path, 30)
	for i := range paths {
		p, err := sys.RandomQueryPath(2+rnd.Intn(8), rnd.Intn)
		if err != nil {
			tb.Fatalf("RandomQueryPath: %v", err)
		}
		paths[i] = p
	}
	return paths
}

// resume puts the hop's state on the wire with encode and evaluates
// the next segment from what the decoder makes of it.
func (h *relayHop) resume(tb testing.TB, encode func(*core.ChainState) ([]byte, error)) (*pathcost.SegmentResult, error) {
	tb.Helper()
	wire, err := encode(h.state)
	if err != nil {
		tb.Fatalf("%s: encoding the relayed state: %v", h.name, err)
	}
	st, err := pathcost.DecodeChainState(wire, len(h.seg))
	if err != nil {
		tb.Fatalf("%s: decoding the relayed state: %v", h.name, err)
	}
	return h.next.EvaluateSegment(pathcost.SegmentInput{
		Path: h.seg, Depart: relayDepart, UI: h.ui, State: st, Opt: h.opt,
	})
}

// TestRelayStateFormatsResumeIdentically pins "one relay wire
// version": for every state the equivalence suite's workload relays,
// the retired text pstate-v1 dump is rejected with an error naming the
// version this build reads (the dump a mixed-release fleet would still
// send must fail loudly, not misparse), and the pstate-v2 dump resumes
// the next shard's evaluation deterministically — two decodes of the
// same bytes answer byte for byte the same.
func TestRelayStateFormatsResumeIdentically(t *testing.T) {
	for _, h := range relayHops(t) {
		v1, err := core.EncodeStateV1(h.state)
		if err != nil {
			t.Fatalf("%s: EncodeStateV1: %v", h.name, err)
		}
		if _, err := pathcost.DecodeChainState(v1, len(h.seg)); err == nil ||
			!strings.Contains(err.Error(), "unsupported partial state") || !strings.Contains(err.Error(), "pstate-v2") {
			t.Fatalf("%s: v1 text dump: got %v, want an unsupported-partial-state error naming pstate-v2", h.name, err)
		}
		a, errA := h.resume(t, (*core.ChainState).Encode)
		b, errB := h.resume(t, (*core.ChainState).Encode)
		if errA != nil || errB != nil {
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: resumed once only: %v, %v", h.name, errA, errB)
			}
			continue
		}
		if a.UI != b.UI || a.Factors != b.Factors || a.MaxRank != b.MaxRank {
			t.Fatalf("%s: metadata diverged: %+v vs %+v", h.name, a, b)
		}
		da, errA := a.State.Encode()
		db, errB := b.State.Encode()
		if errA != nil || errB != nil || !bytes.Equal(da, db) {
			t.Fatalf("%s: two resumes from one v2 dump diverged (%v, %v):\n%x\nvs\n%x", h.name, errA, errB, da, db)
		}
	}
}

// FuzzPartialState feeds arbitrary bytes to the partial-state decoder,
// which reads pstate-v2 only: it must reject or accept, never panic,
// and for anything it accepts decode → encode → decode is a fixed
// point. The comparison is on the v2 encoding, which carries every
// float as its raw bits, so equal bytes are states equal under
// math.Float64bits. Seeds: every relayed state of the equivalence
// suite's workload in v2 and in the retired text pstate-v1 (which must
// be rejected without a panic), truncations and bit flips of some, and
// headers claiming counts their input cannot back.
func FuzzPartialState(f *testing.F) {
	for i, h := range relayHops(f) {
		for _, encode := range []func(*core.ChainState) ([]byte, error){(*core.ChainState).Encode, core.EncodeStateV1} {
			good, err := encode(h.state)
			if err != nil {
				f.Fatalf("%s: %v", h.name, err)
			}
			f.Add(good)
			if i%16 != 0 {
				continue
			}
			f.Add(good[:len(good)/2])
			f.Add(good[:len(good)-1])
			for _, off := range []int{3, 4, 5, 6, len(good) / 2, len(good) - 1} {
				flipped := bytes.Clone(good)
				flipped[off] ^= 0x10
				f.Add(flipped)
			}
		}
	}
	// One dimension with boundaries 0 and 1, then 2³²−1 cells claimed
	// on a 40-byte input; 65535 boundaries claimed on a 7-byte one.
	f.Add(append([]byte("PST\x02\x00\x02\x00"+
		"\x00\x00\x00\x00\x00\x00\x00\x00"+"\x00\x00\x00\x00\x00\x00\xf0\x3f"+
		"\xff\xff\xff\xff"), make([]byte, 13)...))
	f.Add([]byte("PST\x02\x00\xff\xff"))
	f.Add([]byte("PST\x03"))
	f.Add([]byte("pstate-v1\ns 0\nm 1\nb 2 0 1\nc 4294967296\n"))
	f.Add([]byte("pstate-v1\ns 2 0 1\n"))
	f.Add([]byte("pstate-v9\n"))
	f.Add([]byte("<html>oops</html>"))
	f.Add([]byte{0x00, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := core.DecodeChainState(data, 8)
		if err != nil {
			return
		}
		enc, err := st.Encode()
		if err != nil {
			t.Fatalf("accepted state failed to encode: %v", err)
		}
		again, err := core.DecodeChainState(enc, 8)
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		enc2, err := again.Encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("decode → encode → decode is not a fixed point (%v):\n%x\nvs\n%x", err, enc, enc2)
		}
	})
}
