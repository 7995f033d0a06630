package core

import "testing"

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
