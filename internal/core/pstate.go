package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hist"
)

// The partial-state wire format, pstate-v2. States cross process
// boundaries between shards several times per query, so the format is
// binary and decodes straight off the byte slice; every float travels
// as its IEEE-754 bits, so a decoded state resumes evaluation
// bit-exactly by construction. All integers are little-endian.
//
//	offset  size            field
//	0       3               magic "PST"
//	3       1               version, 2
//	4       1               nOpen, the number of open dimensions (< hist.MaxDims)
//	5       2·nOpen         open query positions, uint16, strictly ascending
//	        then, for each of the dims = 1+nOpen dimensions (accumulator first):
//	        2               nb, the boundary count (≥ 2)
//	        8·nb            boundaries, float64 bits, strictly increasing
//	        4               n, the cell count (≥ 1)
//	        n·(2·dims+8)    cells in ascending key order: dims uint16
//	                        bucket indices, then the probability's float64 bits
//
// Nothing follows the last cell. The version byte fails loudly on
// mismatch instead of misparsing.
const (
	stateMagic   = "PST"
	stateVersion = 2
	stateHeader  = len(stateMagic) + 1
)

// stateScratchCells sizes the decoder's on-stack cell buffers. A relay
// state is accumulator-only, so Params.MaxAccBuckets (48 by default)
// bounds its cells; larger states fall back to the heap.
const stateScratchCells = 64

// Encode serializes the state as pstate-v2.
func (s *ChainState) Encode() ([]byte, error) {
	cs := s.cs
	dims := cs.m.Dims()
	if dims != 1+len(cs.open) {
		return nil, fmt.Errorf("core: state joint has %d dims, want %d (acc + open)", dims, 1+len(cs.open))
	}
	keys, probs := cs.m.Cells()
	size := stateHeader + 1 + 2*len(cs.open) + 4 + len(keys)*(2*dims+8)
	for d := 0; d < dims; d++ {
		size += 2 + 8*len(cs.m.Bounds(d))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, stateMagic...)
	buf = append(buf, stateVersion, byte(len(cs.open)))
	for _, q := range cs.open {
		if q < 0 || q > math.MaxUint16 {
			return nil, fmt.Errorf("core: open position %d does not fit the wire format", q)
		}
		buf = le.AppendUint16(buf, uint16(q))
	}
	for d := 0; d < dims; d++ {
		bd := cs.m.Bounds(d)
		buf = le.AppendUint16(buf, uint16(len(bd))) // hist caps boundaries at MaxUint16
		for _, x := range bd {
			buf = le.AppendUint64(buf, math.Float64bits(x))
		}
	}
	buf = le.AppendUint32(buf, uint32(len(keys)))
	for i, k := range keys {
		for d := 0; d < dims; d++ {
			buf = le.AppendUint16(buf, k.Dim(d))
		}
		buf = le.AppendUint64(buf, math.Float64bits(probs[i]))
	}
	return buf, nil
}

// DecodeChainState parses an Encode dump into a state the caller owns
// (see ChainState.Release). pathLen bounds the open positions (relay
// states have none; pass the segment length). The input is untrusted
// wire data: every count is checked against the bytes actually present
// before anything is allocated for it, every index and probability is
// validated, normalization is checked, and malformed input returns a
// descriptive error — never a panic. pstate-v2 is the only version
// read: anything else, the retired text pstate-v1 included, is an
// "unsupported partial state" error.
func DecodeChainState(data []byte, pathLen int) (*ChainState, error) {
	if pathLen < 1 {
		pathLen = 1
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty partial state")
	}
	if !bytes.HasPrefix(data, []byte(stateMagic)) {
		return nil, fmt.Errorf("core: unsupported partial state %.40q (this build reads binary pstate-v%d only)", data, stateVersion)
	}
	if len(data) < stateHeader || data[stateHeader-1] != stateVersion {
		return nil, fmt.Errorf("core: unsupported partial state version %v (this build reads %d)", data[len(stateMagic):min(len(data), stateHeader)], stateVersion)
	}
	ring := ringPool.Get().(*chainRing)
	cs, err := decodeStateV2(data[stateHeader:], pathLen, &ring[0])
	if err != nil {
		ring.release()
		return nil, fmt.Errorf("core: partial state: %w", err)
	}
	return &ChainState{cs: cs, ring: ring}, nil
}

// decodeStateV2 parses what follows the magic and version bytes into
// the slot.
func decodeStateV2(p []byte, pathLen int, into *stateSlot) (*chainState, error) {
	le := binary.LittleEndian
	if len(p) < 1 {
		return nil, fmt.Errorf("truncated (open-dimension count)")
	}
	nOpen := int(p[0])
	p = p[1:]
	if nOpen >= hist.MaxDims {
		return nil, fmt.Errorf("%d open dimensions out of range [0,%d)", nOpen, hist.MaxDims)
	}
	if len(p) < 2*nOpen {
		return nil, fmt.Errorf("truncated (open positions)")
	}
	open := make([]int, nOpen)
	for i := range open {
		q := int(le.Uint16(p[2*i:]))
		if q >= pathLen || (i > 0 && q <= open[i-1]) {
			return nil, fmt.Errorf("open position %d at index %d not ascending within a path of %d edges", q, i, pathLen)
		}
		open[i] = q
	}
	p = p[2*nOpen:]

	dims := 1 + nOpen
	var boundsArr [hist.MaxDims][]float64
	bounds := boundsArr[:dims]
	for d := range bounds {
		if len(p) < 2 {
			return nil, fmt.Errorf("truncated (bounds of dim %d)", d)
		}
		nb := int(le.Uint16(p))
		p = p[2:]
		if nb < 2 {
			return nil, fmt.Errorf("dim %d has %d boundaries, need ≥ 2", d, nb)
		}
		if len(p) < 8*nb {
			return nil, fmt.Errorf("truncated (dim %d claims %d boundaries, %d bytes left)", d, nb, len(p))
		}
		bd := make([]float64, nb)
		for i := range bd {
			x := math.Float64frombits(le.Uint64(p[8*i:]))
			if math.IsNaN(x) || math.IsInf(x, 0) || (i > 0 && x <= bd[i-1]) {
				return nil, fmt.Errorf("dim %d boundaries not finite and increasing at %d", d, i)
			}
			bd[i] = x
		}
		bounds[d] = bd
		p = p[8*nb:]
	}

	if len(p) < 4 {
		return nil, fmt.Errorf("truncated (cell count)")
	}
	n := int(le.Uint32(p))
	p = p[4:]
	cell := 2*dims + 8
	if n < 1 {
		return nil, fmt.Errorf("cell count %d must be positive", n)
	}
	if uint64(len(p)) != uint64(n)*uint64(cell) {
		return nil, fmt.Errorf("%d cells of %d bytes claimed, %d bytes follow", n, cell, len(p))
	}
	// NewMultiFromPackedCells copies the cells into the Multi's own
	// storage, so the common case stages them on the stack.
	var keyBuf [stateScratchCells]hist.PackedKey
	var probBuf [stateScratchCells]float64
	keys, probs := keyBuf[:0], probBuf[:0]
	if n > stateScratchCells {
		keys, probs = make([]hist.PackedKey, 0, n), make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		var k hist.PackedKey
		for d := 0; d < dims; d++ {
			j := le.Uint16(p[2*d:])
			if int(j) >= len(bounds[d])-1 {
				return nil, fmt.Errorf("cell %d index %d out of range on dim %d (%d buckets)", i, j, d, len(bounds[d])-1)
			}
			k = k.WithDim(d, j)
		}
		if i > 0 && !keys[i-1].Less(k) {
			return nil, fmt.Errorf("cell keys not in ascending order at %d", i)
		}
		pr := math.Float64frombits(le.Uint64(p[2*dims:]))
		if !(pr >= 0) || math.IsInf(pr, 0) {
			return nil, fmt.Errorf("cell %d probability %v is not a finite non-negative number", i, pr)
		}
		keys, probs = append(keys, k), append(probs, pr)
		p = p[cell:]
	}
	m, err := hist.NewMultiFromPackedCells(bounds, keys, probs)
	if err != nil {
		return nil, err
	}
	if err := m.CheckNormalized(normTolerance); err != nil {
		hist.PutMulti(m)
		return nil, err
	}
	return into.hold(m, open), nil
}
