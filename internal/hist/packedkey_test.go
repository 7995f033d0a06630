package hist

import (
	"math/rand"
	"testing"
)

// Differential tests for the packed cell-key representation: every
// PackedKey operation must agree with the corresponding operation on
// the unpacked CellKey form, whose order cellKeyLess defines.

// cellKeyLess reports whether a sorts before b in lexicographic order
// over all dimensions — the storage order of Multi and the visit order
// of ForEachSorted. PackedKey.Less implements the same order on the
// packed form; the differential tests pin the two against each other.
func cellKeyLess(a, b CellKey) bool {
	for d := 0; d < MaxDims; d++ {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

// randomCellKey draws a key biased toward the shapes the evaluator
// produces: a leading run of populated dimensions with zero trailing
// dims, index values clustered near bucket-count boundaries (small
// grids are the common case) but also spanning the full uint16 range.
func randomCellKey(rnd *rand.Rand) CellKey {
	var k CellKey
	ndims := rnd.Intn(MaxDims + 1)
	for d := 0; d < ndims; d++ {
		switch rnd.Intn(5) {
		case 0:
			k[d] = 0
		case 1:
			k[d] = uint16(rnd.Intn(4)) // small bucket counts dominate in practice
		case 2:
			k[d] = uint16(rnd.Intn(64)) // MaxResultBuckets-scale grids
		case 3:
			k[d] = uint16(1)<<uint(rnd.Intn(16)) - 1 // word/nibble boundary patterns
		default:
			k[d] = uint16(rnd.Intn(1 << 16))
		}
	}
	return k
}

// mutateKey returns a near-neighbor of k: one dimension nudged by ±1
// or replaced, so ordering is exercised at single-index boundaries —
// including across the packing's word boundaries (dims 3↔4, 7↔8).
func mutateKey(rnd *rand.Rand, k CellKey) CellKey {
	d := rnd.Intn(MaxDims)
	switch rnd.Intn(3) {
	case 0:
		k[d]++
	case 1:
		k[d]--
	default:
		k[d] = uint16(rnd.Intn(1 << 16))
	}
	return k
}

// INVARIANT: PackKey(a).Less(PackKey(b)) == cellKeyLess(a, b) for all
// keys — the packed store sorts exactly as the unpacked oracle does.
func TestPackedKeyOrderMatchesCellKeyLess(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	check := func(a, b CellKey) {
		t.Helper()
		pa, pb := PackKey(a), PackKey(b)
		if got, want := pa.Less(pb), cellKeyLess(a, b); got != want {
			t.Fatalf("Less(%v, %v) = %v, oracle %v", a, b, got, want)
		}
		if got, want := pb.Less(pa), cellKeyLess(b, a); got != want {
			t.Fatalf("Less(%v, %v) = %v, oracle %v", b, a, got, want)
		}
		if got, want := pa == pb, a == b; got != want {
			t.Fatalf("equality of %v, %v: packed %v, oracle %v", a, b, got, want)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		a := randomCellKey(rnd)
		check(a, randomCellKey(rnd)) // independent pair
		check(a, mutateKey(rnd, a))  // near-neighbor pair
		check(a, a)                  // self
	}
}

// Packing round-trips losslessly and Dim reads each dimension.
func TestPackedKeyRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5000; trial++ {
		k := randomCellKey(rnd)
		p := PackKey(k)
		if p.Unpack() != k {
			t.Fatalf("Unpack(PackKey(%v)) = %v", k, p.Unpack())
		}
		for d := 0; d < MaxDims; d++ {
			if p.Dim(d) != k[d] {
				t.Fatalf("Dim(%d) of %v = %d, want %d", d, k, p.Dim(d), k[d])
			}
		}
	}
}

// WithDim writes exactly one dimension; WithDim0From transplants
// exactly dimension 0.
func TestPackedKeyWithDim(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5000; trial++ {
		k := randomCellKey(rnd)
		d := rnd.Intn(MaxDims)
		v := uint16(rnd.Intn(1 << 16))
		want := k
		want[d] = v
		if got := PackKey(k).WithDim(d, v); got != PackKey(want) {
			t.Fatalf("WithDim(%d, %d) of %v = %v, want %v", d, v, k, got.Unpack(), want)
		}
		q := randomCellKey(rnd)
		want = k
		want[0] = q[0]
		if got := PackKey(k).WithDim0From(PackKey(q)); got != PackKey(want) {
			t.Fatalf("WithDim0From: got %v, want %v", got.Unpack(), want)
		}
	}
}

// Prefix operations agree with truncated-key comparisons on the oracle
// form, for every prefix length including word-aligned ones.
func TestPackedKeyPrefixOps(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	truncate := func(k CellKey, n int) CellKey {
		for d := n; d < MaxDims; d++ {
			k[d] = 0
		}
		return k
	}
	for trial := 0; trial < 5000; trial++ {
		a := randomCellKey(rnd)
		b := randomCellKey(rnd)
		if rnd.Intn(2) == 0 {
			b = mutateKey(rnd, a) // near-neighbors stress partial-word masks
		}
		pa, pb := PackKey(a), PackKey(b)
		for n := 0; n <= MaxDims; n++ {
			ta, tb := truncate(a, n), truncate(b, n)
			if got, want := pa.PrefixEq(pb, n), ta == tb; got != want {
				t.Fatalf("PrefixEq(%v, %v, %d) = %v, oracle %v", a, b, n, got, want)
			}
			if got, want := pa.PrefixLess(pb, n), cellKeyLess(ta, tb); got != want {
				t.Fatalf("PrefixLess(%v, %v, %d) = %v, oracle %v", a, b, n, got, want)
			}
			if got, want := pa.MaskPrefix(n), PackKey(ta); got != want {
				t.Fatalf("MaskPrefix(%v, %d) = %v, want %v", a, n, got.Unpack(), ta)
			}
		}
	}
}

// Shift operations implement prepend/drop of the accumulator axis and
// preserve relative order.
func TestPackedKeyShifts(t *testing.T) {
	rnd := rand.New(rand.NewSource(45))
	for trial := 0; trial < 5000; trial++ {
		k := randomCellKey(rnd)
		k[MaxDims-1] = 0 // ShiftDimRight's documented precondition
		var right CellKey
		copy(right[1:], k[:MaxDims-1])
		if got := PackKey(k).ShiftDimRight(); got != PackKey(right) {
			t.Fatalf("ShiftDimRight(%v) = %v, want %v", k, got.Unpack(), right)
		}

		j := randomCellKey(rnd)
		var left CellKey
		copy(left[:MaxDims-1], j[1:])
		if got := PackKey(j).ShiftDimLeft(); got != PackKey(left) {
			t.Fatalf("ShiftDimLeft(%v) = %v, want %v", j, got.Unpack(), left)
		}

		// Order preservation of the prepend map.
		a, b := randomCellKey(rnd), randomCellKey(rnd)
		a[MaxDims-1], b[MaxDims-1] = 0, 0
		pa, pb := PackKey(a), PackKey(b)
		if pa.Less(pb) != pa.ShiftDimRight().Less(pb.ShiftDimRight()) {
			t.Fatalf("ShiftDimRight broke the order of %v, %v", a, b)
		}
	}
}
