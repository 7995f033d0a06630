package hist

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// checkDecimal holds packDecimal and AppendDecimal to strconv on f:
// a number the packing states writes strconv's 'f' shortest text, byte
// for byte, after whatever b held; any other is refused and leaves b
// as it was.
func checkDecimal(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte(`{"x":`)
	w := packDecimal(f)
	got, ok := AppendDecimal(prefix, w)
	if !ok {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%v (bits %#x): a refusal wrote %q", f, math.Float64bits(f), got)
		}
		if decimalStated(f) {
			t.Fatalf("%v (bits %#x): no packed word, want one", f, math.Float64bits(f))
		}
		return
	}
	if !decimalStated(f) {
		t.Fatalf("%v (bits %#x): packed as %#x, want no word", f, math.Float64bits(f), w)
	}
	want := strconv.AppendFloat([]byte(`{"x":`), f, 'f', -1, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (bits %#x, word %#x): wrote %q, strconv %q", f, math.Float64bits(f), w, got, want)
	}
}

// decimalStated is the packing's domain: +0 and the 'f' range of JSON.
func decimalStated(f float64) bool {
	return math.Float64bits(f) == 0 || (f >= 1e-6 && f < 1e21)
}

// decimalEdges are the values the packing turns on: signed zeros, the
// ends of the 'f' range and their neighbours, subnormals, integers
// around 2^53, the widest digit strings, NaN and ±Inf.
func decimalEdges() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 1.0 / 3, 2.0 / 3, 28800, 123456789.125,
		1e-6, 1e21, 1e20, 9.999999999999999e20, 1e-7, 1e-5, 9.99999e-7,
		5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, 1<<53 - 1, 1 << 60, 1 << 63, 1 << 69, 1e15, 1e16, 1e17,
		0.30000000000000004, 1.7976931348623157e308, 4.940656458412e-324, 123e18,
		0.000001000000000000001, 0.1234567890123456789, 98765.43210987654,
	}
	for _, f := range []float64{1e-6, 1e21} {
		g, h := f, f
		for range 4 {
			g, h = math.Nextafter(g, 0), math.Nextafter(h, math.Inf(1))
			vs = append(vs, g, h)
		}
	}
	for e := -30; e <= 30; e++ {
		p := math.Pow(10, float64(e))
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), 3*p, p/7)
	}
	for i := 0; i < 70; i++ {
		n := uint64(1) << i
		vs = append(vs, float64(n), float64(n-1), float64(n+1), float64(n)*1000, float64(n*10))
	}
	for i := 1; i < 1000; i++ { // subnormals, small to large
		vs = append(vs, math.Float64frombits(uint64(i)), math.Float64frombits(uint64(i)<<40))
	}
	n := len(vs)
	for _, f := range vs[:n] {
		vs = append(vs, -f)
	}
	return vs
}

// TestDecimalMatchesStrconv is the differential: random bit patterns
// (every exponent, so most fall outside the packing and are refused),
// random mantissas inside it, uniform draws from [0, 1) and [0, 1e5) —
// the probabilities and seconds of an answer — and the edge values.
func TestDecimalMatchesStrconv(t *testing.T) {
	for _, f := range decimalEdges() {
		checkDecimal(t, f)
	}
	rnd := rand.New(rand.NewSource(1))
	n := 2_000_000
	if raceEnabled || testing.Short() {
		n /= 20
	}
	for range n {
		checkDecimal(t, math.Float64frombits(rnd.Uint64()))
	}
	for range n / 2 {
		// Every mantissa at a binary exponent of the packing's range.
		checkDecimal(t, math.Ldexp(1+rnd.Float64(), rnd.Intn(91)-21))
		checkDecimal(t, rnd.Float64())
		checkDecimal(t, 1e5*rnd.Float64())
	}
	// Integers up to and past 2^53, whose shortest digits end in
	// zeros the writer puts back.
	for range n / 4 {
		checkDecimal(t, float64(rnd.Int63n(1<<60)>>rnd.Intn(60)))
	}
}

// TestNegativeZeroIsRefused: -0 is not +0. A packing that tested
// f == 0 before the sign would write "0" where JSON writes "-0", and
// no positive input finds it.
func TestNegativeZeroIsRefused(t *testing.T) {
	if _, ok := AppendDecimal(nil, packDecimal(math.Copysign(0, -1))); ok {
		t.Fatal("-0 packed")
	}
	if b, ok := AppendDecimal(nil, packDecimal(0)); !ok || string(b) != "0" {
		t.Fatalf("+0 wrote %q, %v", b, ok)
	}
}

func FuzzDecimal(f *testing.F) {
	for _, v := range decimalEdges() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkDecimal(t, math.Float64frombits(bits))
	})
}

// TestDecimalRecordLayout: a record holds a word per number the
// answer writes, a bucket's Lo only when it differs from the previous
// Hi, and each word packs its number.
func TestDecimalRecordLayout(t *testing.T) {
	h, err := FromBuckets([]Bucket{{0, 10, 0.25}, {10, 30, 0.5}, {31, 40.5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	sum := h.Summary()
	var s DecimalSlot
	if s.Load() != nil {
		t.Fatal("an empty slot holds a record")
	}
	d := s.Fill(h, sum)
	want := []float64{sum.Mean, sum.P10, sum.P50, sum.P90, 0, 10, 0.25, 30, 0.5, 31, 40.5, 0.25}
	if len(d) != len(want) {
		t.Fatalf("record of %d words, want %d", len(d), len(want))
	}
	for i, f := range want {
		if d[i] != packDecimal(f) {
			t.Errorf("word %d is %#x, want %v's %#x", i, d[i], f, packDecimal(f))
		}
	}
	if l := s.Load(); &l[0] != &d[0] || len(l) != len(d) {
		t.Fatal("Load returns another record than Fill built")
	}
	if again := s.Fill(h, sum); &again[0] != &d[0] {
		t.Fatal("a second Fill built another record")
	}
}

// TestDecimalSlotRace: goroutines racing to fill one slot all get the
// record that won.
func TestDecimalSlotRace(t *testing.T) {
	h, err := FromBuckets([]Bucket{{1, 2, 0.5}, {2, 3, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for range 50 {
		var s DecimalSlot
		got := make([]*uint64, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = &s.Fill(h, h.Summary())[0]
			}()
		}
		wg.Wait()
		for _, p := range got {
			if p != &s.Load()[0] {
				t.Fatal("racing fills returned different records")
			}
		}
	}
}

// TestDecimalFillAllocs: a record is one allocation, and a filled
// slot answers without one.
func TestDecimalFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h, err := FromBuckets([]Bucket{{1, 2, 0.25}, {2, 3, 0.5}, {4, 5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	sum := h.Summary()
	slots, i := make([]DecimalSlot, 101), 0 // AllocsPerRun's warm-up is one more run
	if n := testing.AllocsPerRun(100, func() { slots[i].Fill(h, sum); i++ }); n != 1 {
		t.Fatalf("a fill allocates %v, want 1", n)
	}
	var s DecimalSlot
	s.Fill(h, sum)
	if n := testing.AllocsPerRun(100, func() { s.Fill(h, sum) }); n != 0 {
		t.Fatalf("a filled slot allocates %v", n)
	}
	b := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { b, _ = AppendDecimal(b[:0], packDecimal(1234.5678)) }); n != 0 {
		t.Fatalf("packing and writing a number allocates %v", n)
	}
}
