package hist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestNewRawValidation(t *testing.T) {
	if _, err := NewRaw(nil, 1); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := NewRaw([]float64{1}, 0); err == nil {
		t.Error("zero resolution should error")
	}
	if _, err := NewRaw([]float64{math.NaN()}, 1); err == nil {
		t.Error("NaN sample should error")
	}
	if _, err := NewRaw([]float64{math.Inf(1)}, 1); err == nil {
		t.Error("Inf sample should error")
	}
}

func TestNewRawSnapsAndNormalizes(t *testing.T) {
	r, err := NewRaw([]float64{10.2, 9.8, 10.4, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDistinct() != 2 || r.StorageEntries() != 2 {
		t.Fatalf("distinct = %d, want 2 (10 and 20)", r.NumDistinct())
	}
	if want := []ValueFreq{{Value: 10, Perc: 0.75}, {Value: 20, Perc: 0.25}}; !reflect.DeepEqual(r.Entries, want) {
		t.Fatalf("entries = %v, want %v", r.Entries, want)
	}
}

func TestVOptimalSingleBucket(t *testing.T) {
	raw, _ := NewRaw([]float64{1, 2, 3, 4}, 1)
	h, err := VOptimal(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 1 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("support [%v,%v), want [1,5)", h.Min(), h.Max())
	}
}

func TestVOptimalSeparatesModes(t *testing.T) {
	// Two well-separated modes; with b=2 the cut must fall between them.
	var samples []float64
	for i := 0; i < 50; i++ {
		samples = append(samples, 10+float64(i%3)) // 10,11,12
		samples = append(samples, 100+float64(i%3))
	}
	raw, _ := NewRaw(samples, 1)
	h, err := VOptimal(raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	b := h.Buckets()
	if b[0].Hi > 100 || b[1].Lo < 13 {
		t.Fatalf("cut not between modes: %v", h)
	}
	if !almostEq(b[0].Pr, 0.5, 1e-9) || !almostEq(b[1].Pr, 0.5, 1e-9) {
		t.Fatalf("mode masses: %v", h)
	}
}

func TestVOptimalBExceedsDistinct(t *testing.T) {
	raw, _ := NewRaw([]float64{5, 7}, 1)
	h, err := VOptimal(raw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d, want clamped to 2", h.NumBuckets())
	}
}

func TestVOptimalInvalidArgs(t *testing.T) {
	raw, _ := NewRaw([]float64{1}, 1)
	if _, err := VOptimal(raw, 0); err == nil {
		t.Error("b=0 should error")
	}
	if _, err := VOptimal(&Raw{}, 1); err == nil {
		t.Error("empty raw should error")
	}
}

func TestVOptimalMassMatchesRaw(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	samples := make([]float64, 500)
	for i := range samples {
		if i%3 == 0 {
			samples[i] = math.Round(50 + rnd.NormFloat64()*5)
		} else {
			samples[i] = math.Round(90 + rnd.NormFloat64()*10)
		}
	}
	raw, _ := NewRaw(samples, 1)
	for b := 1; b <= 6; b++ {
		h, err := VOptimal(raw, b)
		if err != nil {
			t.Fatal(err)
		}
		// Each bucket's probability must equal the raw mass it covers.
		for _, bk := range h.Buckets() {
			var mass float64
			for _, e := range raw.Entries {
				if e.Value >= bk.Lo && e.Value < bk.Hi {
					mass += e.Perc
				}
			}
			if !almostEq(mass, bk.Pr, 1e-9) {
				t.Fatalf("b=%d bucket [%v,%v): pr %v vs raw mass %v", b, bk.Lo, bk.Hi, bk.Pr, mass)
			}
		}
	}
}

func TestAutoBucketCountBimodal(t *testing.T) {
	// Clearly bimodal data: Auto should pick at least 2 buckets.
	rnd := rand.New(rand.NewSource(21))
	var samples []float64
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			samples = append(samples, math.Round(60+rnd.NormFloat64()*2))
		} else {
			samples = append(samples, math.Round(120+rnd.NormFloat64()*2))
		}
	}
	res, err := AutoBucketCount(samples, 1, DefaultAutoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen < 2 {
		t.Fatalf("chosen = %d for bimodal data, want ≥ 2 (errors %v)", res.Chosen, res.Errors)
	}
	// E_b must be non-increasing in expectation for the recorded prefix.
	for i := 1; i < len(res.Errors)-1; i++ {
		if res.Errors[i] > res.Errors[i-1]*1.5 {
			t.Fatalf("error curve spikes at b=%d: %v", i+1, res.Errors)
		}
	}
}

func TestAutoBucketCountUniform(t *testing.T) {
	// Near-uniform single-regime data: 1 bucket should suffice (the
	// error drop from adding buckets is small).
	rnd := rand.New(rand.NewSource(17))
	samples := make([]float64, 600)
	for i := range samples {
		samples[i] = math.Round(100 + rnd.Float64()*10)
	}
	res, err := AutoBucketCount(samples, 1, DefaultAutoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen > 3 {
		t.Fatalf("chosen = %d for uniform data, want small", res.Chosen)
	}
}

func TestAutoBucketCountTinySample(t *testing.T) {
	res, err := AutoBucketCount([]float64{42, 43}, 1, DefaultAutoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != 1 {
		t.Fatalf("chosen = %d, want 1 for tiny samples", res.Chosen)
	}
}

func TestAutoBucketCountBadConfig(t *testing.T) {
	cfg := DefaultAutoConfig()
	cfg.Folds = 1
	if _, err := AutoBucketCount([]float64{1, 2, 3}, 1, cfg); err == nil {
		t.Fatal("folds=1 should error")
	}
}

func TestAutoHistogramAccuracyVsStatic(t *testing.T) {
	// Auto should be roughly as accurate as a generous static choice.
	rnd := rand.New(rand.NewSource(33))
	var samples []float64
	for i := 0; i < 900; i++ {
		switch i % 3 {
		case 0:
			samples = append(samples, math.Round(60+rnd.NormFloat64()*3))
		case 1:
			samples = append(samples, math.Round(110+rnd.NormFloat64()*4))
		default:
			samples = append(samples, math.Round(160+rnd.NormFloat64()*3))
		}
	}
	auto, res, err := AutoHistogram(samples, 1, DefaultAutoConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := NewRaw(samples, 1)
	sta1, _ := VOptimal(raw, 1)
	if auto.SquaredError(raw) > sta1.SquaredError(raw) {
		t.Fatalf("Auto (b=%d) worse than a single bucket", res.Chosen)
	}
	if res.Chosen < 2 {
		t.Fatalf("trimodal data chose b=%d", res.Chosen)
	}
}

func TestStaticHistogram(t *testing.T) {
	h, err := StaticHistogram([]float64{1, 2, 3, 10, 11, 12}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if _, err := StaticHistogram(nil, 1, 2); err == nil {
		t.Fatal("empty samples should error")
	}
}

func TestSplitFoldsDeterministicPartition(t *testing.T) {
	samples := make([]float64, 103)
	for i := range samples {
		samples[i] = float64(i)
	}
	order := dealFolds(len(samples), 42)
	if len(order) != len(samples) {
		t.Fatalf("dealt %d of %d samples", len(order), len(samples))
	}
	// Entry i goes to fold i mod f: every sample in exactly one fold,
	// and the folds are those the per-fold construction dealt.
	const f = 5
	folds := make([][]float64, f)
	seen := make(map[int]bool)
	for i, pi := range order {
		if seen[pi] {
			t.Fatalf("sample %d in two folds", pi)
		}
		seen[pi] = true
		folds[i%f] = append(folds[i%f], samples[pi])
	}
	if want := oracleSplitFolds(samples, f, 42); !reflect.DeepEqual(folds, want) {
		t.Fatalf("folds differ from the per-fold construction:\n got %v\nwant %v", folds, want)
	}
	// Deterministic for a fixed seed.
	if again := dealFolds(len(samples), 42); !reflect.DeepEqual(order, again) {
		t.Fatal("fold split not deterministic")
	}
}
