package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/hist"
)

// syntheticRelayState builds an accumulator-only state of the shape a
// shard relays: one dimension, n equal-mass cells (n ≤ the default
// MaxAccBuckets of 48).
func syntheticRelayState(tb testing.TB, n int) *ChainState {
	tb.Helper()
	bounds := make([]float64, n+1)
	keys := make([]hist.PackedKey, n)
	probs := make([]float64, n)
	for i := range bounds {
		bounds[i] = 60 + 7.25*float64(i)
	}
	for i := range keys {
		keys[i] = hist.PackedKey{}.WithDim(0, uint16(i))
		probs[i] = 1 / float64(n)
	}
	m, err := hist.NewMultiFromPackedCells([][]float64{bounds}, keys, probs)
	if err != nil {
		tb.Fatalf("NewMultiFromPackedCells: %v", err)
	}
	return &ChainState{cs: &chainState{m: m}}
}

// hostileCellCount is a well-formed 40-byte pstate-v2 prefix whose
// cell count claims 2³²−1 cells.
func hostileCellCount() []byte {
	le := binary.LittleEndian
	b := append([]byte(stateMagic), stateVersion, 0)
	b = le.AppendUint16(b, 2)
	b = le.AppendUint64(b, math.Float64bits(0))
	b = le.AppendUint64(b, math.Float64bits(1))
	b = le.AppendUint32(b, math.MaxUint32)
	return append(b, make([]byte, 40-len(b))...)
}

// TestDecodeChainStateClaimedCountsDoNotAllocate: a count the input
// cannot back must be rejected before anything is sized from it —
// the retired text format's claims included, which are now rejected
// at the magic.
func TestDecodeChainStateClaimedCountsDoNotAllocate(t *testing.T) {
	le := binary.LittleEndian
	hostile := map[string][]byte{
		"v2 cells": hostileCellCount(),
		"v2 bounds": le.AppendUint16(
			append([]byte(stateMagic), stateVersion, 0), math.MaxUint16),
		"v2 open":   append([]byte(stateMagic), stateVersion, hist.MaxDims-1),
		"v1 cells":  []byte(stateV1Version + "\ns 0\nm 1\nb 2 0 1\nc 4294967296\n"),
		"v1 bounds": []byte(stateV1Version + "\ns 0\nm 1\nb 4294967296 0 1\n"),
	}
	for name, data := range hostile {
		per := allocBytesPerRun(50, func() {
			if _, err := DecodeChainState(data, 8); err == nil {
				t.Fatalf("%s: decoded without error", name)
			}
		})
		if per > 4<<10 {
			t.Errorf("%s: rejecting a %d-byte input allocated %d bytes", name, len(data), per)
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean heap
// bytes one call of f allocates.
func allocBytesPerRun(runs int, f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

var codecSink int

// BenchmarkChainStateCodec times one relay hop's codec work on a
// 24-cell accumulator-only state: the v2 encode and decode.
func BenchmarkChainStateCodec(b *testing.B) {
	st := syntheticRelayState(b, 24)
	v2, err := st.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(v2)))
		for i := 0; i < b.N; i++ {
			enc, err := st.Encode()
			if err != nil {
				b.Fatal(err)
			}
			codecSink += len(enc)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(v2)))
		for i := 0; i < b.N; i++ {
			dec, err := DecodeChainState(v2, 1)
			if err != nil {
				b.Fatal(err)
			}
			codecSink += dec.cs.m.NumCells()
		}
	})
}
