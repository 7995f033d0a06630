package hist

// Packed cell keys: the storage form of CellKey inside Multi.
//
// A CellKey is MaxDims uint16 bucket indices compared lexicographically
// — the hot comparison of every sorted-cell operation (merge-joins,
// binary searches, fold-emission sorts). Packing four dimensions per
// uint64 word, dimension-major (dimension 0 in the highest 16 bits of
// word 0), makes that comparison 1–3 machine-word compares instead of
// up to MaxDims uint16 compares, and makes common prefix tests a masked
// word compare. For the common ≤ 4-dimension case the first word
// decides everything.
//
// The packing is pure shift/or arithmetic, so it is endianness-
// independent and the invariant below holds by construction:
//
//	PackKey(a).Less(PackKey(b)) == cellKeyLess(a, b)
//
// CellKey remains the API form (ForEachSorted callbacks, SetCell index
// arguments, the Delta accumulator's Add) and the differential oracle
// for the packed ordering; see TestPackedKeyOrderMatchesCellKeyLess.

// keyDimsPerWord is how many uint16 dimensions one uint64 word holds.
const keyDimsPerWord = 4

// keyWords is the number of uint64 words backing one packed key.
const keyWords = (MaxDims + keyDimsPerWord - 1) / keyDimsPerWord

// pkDim0Mask selects dimension 0 (the chain evaluator's accumulator
// axis) within word 0.
const pkDim0Mask = uint64(0xffff) << 48

// PackedKey is a CellKey packed four dimensions per word, dimension-
// major, so that lexicographic CellKey order equals word-by-word
// integer order. The zero value is the key with all indices zero.
type PackedKey [keyWords]uint64

// pkShift returns the bit offset of dimension d within its word.
func pkShift(d int) uint { return uint(keyDimsPerWord-1-(d&(keyDimsPerWord-1))) * 16 }

// PackKey packs a CellKey into its word form.
func PackKey(k CellKey) PackedKey {
	return PackedKey{
		uint64(k[0])<<48 | uint64(k[1])<<32 | uint64(k[2])<<16 | uint64(k[3]),
		uint64(k[4])<<48 | uint64(k[5])<<32 | uint64(k[6])<<16 | uint64(k[7]),
		uint64(k[8])<<48 | uint64(k[9])<<32 | uint64(k[10])<<16 | uint64(k[11]),
	}
}

// Unpack expands the key back to its per-dimension index form.
func (p PackedKey) Unpack() CellKey {
	return CellKey{
		uint16(p[0] >> 48), uint16(p[0] >> 32), uint16(p[0] >> 16), uint16(p[0]),
		uint16(p[1] >> 48), uint16(p[1] >> 32), uint16(p[1] >> 16), uint16(p[1]),
		uint16(p[2] >> 48), uint16(p[2] >> 32), uint16(p[2] >> 16), uint16(p[2]),
	}
}

// Dim returns the bucket index of dimension d.
func (p PackedKey) Dim(d int) uint16 {
	return uint16(p[d>>2] >> pkShift(d))
}

// WithDim returns the key with dimension d set to v.
func (p PackedKey) WithDim(d int, v uint16) PackedKey {
	s := pkShift(d)
	w := d >> 2
	p[w] = p[w]&^(uint64(0xffff)<<s) | uint64(v)<<s
	return p
}

// Less reports whether p sorts before q — identical to cellKeyLess on
// the unpacked forms, in at most keyWords word compares.
func (p PackedKey) Less(q PackedKey) bool {
	if p[0] != q[0] {
		return p[0] < q[0]
	}
	if p[1] != q[1] {
		return p[1] < q[1]
	}
	return p[2] < q[2]
}

// pkPrefixMask returns the word-w mask selecting the dimensions of a
// length-n prefix that fall inside word w (zero when none do).
func pkPrefixMask(n int) uint64 {
	// Only the partial word needs a mask; full words compare directly.
	r := n & (keyDimsPerWord - 1)
	return ^uint64(0) << (uint(keyDimsPerWord-r) * 16)
}

// PrefixEq reports whether p and q agree on their first n dimensions.
func (p PackedKey) PrefixEq(q PackedKey, n int) bool {
	w := n >> 2
	for i := 0; i < w; i++ {
		if p[i] != q[i] {
			return false
		}
	}
	if n&3 != 0 {
		return (p[w]^q[w])&pkPrefixMask(n) == 0
	}
	return true
}

// PrefixLess orders p against q on their first n dimensions only.
func (p PackedKey) PrefixLess(q PackedKey, n int) bool {
	w := n >> 2
	for i := 0; i < w; i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	if n&3 != 0 {
		m := pkPrefixMask(n)
		return p[w]&m < q[w]&m
	}
	return false
}

// MaskPrefix returns the key with every dimension ≥ n zeroed.
func (p PackedKey) MaskPrefix(n int) PackedKey {
	w := n >> 2
	if n&3 != 0 {
		p[w] &= pkPrefixMask(n)
		w++
	}
	for ; w < keyWords; w++ {
		p[w] = 0
	}
	return p
}

// ShiftDimRight shifts every dimension one position up (dimension d
// moves to d+1) and zeroes dimension 0 — the chain evaluator's
// "prepend an accumulator axis" operation. The caller must ensure
// dimension MaxDims−1 is zero; otherwise its index is silently lost.
// The map is strictly order-preserving, so shifting a sorted key
// sequence keeps it sorted.
func (p PackedKey) ShiftDimRight() PackedKey {
	return PackedKey{
		p[0] >> 16,
		p[0]<<48 | p[1]>>16,
		p[1]<<48 | p[2]>>16,
	}
}

// ShiftDimLeft drops dimension 0 and shifts every other dimension one
// position down (dimension d moves to d−1); the last dimension becomes
// zero. This aligns a chain state's open dimensions (state dims 1..n)
// with a factor's leading dimensions for overlap comparison.
func (p PackedKey) ShiftDimLeft() PackedKey {
	return PackedKey{
		p[0]<<16 | p[1]>>48,
		p[1]<<16 | p[2]>>48,
		p[2] << 16,
	}
}

// WithDim0From returns p with dimension 0 replaced by q's dimension 0.
// The merge-join kernel stamps the state cell's accumulator index onto
// pre-shifted factor keys with it.
func (p PackedKey) WithDim0From(q PackedKey) PackedKey {
	p[0] = p[0]&^pkDim0Mask | q[0]&pkDim0Mask
	return p
}
