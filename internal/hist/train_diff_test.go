package hist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Differential tests of the training path against the per-(b, fold)
// implementation in train_oracle_test.go. "Equal" is bit-equal
// throughout: the shared sort, the integer fold counts and the
// incremental DP rows reorder no float operation.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameBuckets(a, b *Histogram) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.buckets) != len(b.buckets) {
		return false
	}
	for i, x := range a.buckets {
		y := b.buckets[i]
		if !sameBits(x.Lo, y.Lo) || !sameBits(x.Hi, y.Hi) || !sameBits(x.Pr, y.Pr) {
			return false
		}
	}
	return true
}

func sameRaw(a, b *Raw) bool {
	if a.Resolution != b.Resolution || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, x := range a.Entries {
		y := b.Entries[i]
		if !sameBits(x.Value, y.Value) || !sameBits(x.Perc, y.Perc) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trainingSamples draws n travel-time-like samples from 1–3 modes; some
// cases are all-equal, some straddle zero so that snapping produces
// negative values and both signed zeros.
func trainingSamples(rnd *rand.Rand, n int) []float64 {
	samples := make([]float64, n)
	switch rnd.Intn(10) {
	case 0: // all equal
		v := float64(rnd.Intn(50))
		for i := range samples {
			samples[i] = v
		}
	case 1: // around zero: negatives, −0 and +0 after snapping
		for i := range samples {
			samples[i] = rnd.NormFloat64() * 1.5
		}
	default:
		modes := 1 + rnd.Intn(3)
		centre := make([]float64, modes)
		for m := range centre {
			centre[m] = 20 + 60*float64(m) + 10*rnd.Float64()
		}
		for i := range samples {
			samples[i] = centre[rnd.Intn(modes)] + rnd.NormFloat64()*(1+4*rnd.Float64())
		}
	}
	return samples
}

func TestTrainingDifferentialAuto(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	resolutions := []float64{0.1, 0.5, 1, 2}
	cases := 0
	check := func(name string, samples []float64, res float64, cfg AutoConfig) {
		t.Helper()
		cases++
		want, wantErr := oracleAutoBucketCount(samples, res, cfg)
		got, gotErr := AutoBucketCount(samples, res, cfg)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: AutoBucketCount error %q, oracle %q", name, errText(gotErr), errText(wantErr))
		}
		if got.Chosen != want.Chosen || !sameFloats(got.Errors, want.Errors) {
			t.Fatalf("%s: AutoBucketCount = %+v, oracle %+v", name, got, want)
		}
		wantH, wantRes, wantErr := oracleAutoHistogram(samples, res, cfg)
		gotH, gotRes, gotErr := AutoHistogram(samples, res, cfg)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: AutoHistogram error %q, oracle %q", name, errText(gotErr), errText(wantErr))
		}
		if gotRes.Chosen != wantRes.Chosen || !sameFloats(gotRes.Errors, wantRes.Errors) || !sameBuckets(gotH, wantH) {
			t.Fatalf("%s: AutoHistogram differs from the oracle:\n got %v %+v\nwant %v %+v", name, gotH, gotRes, wantH, wantRes)
		}
	}
	for i := 0; i < 3000; i++ {
		n := 1 + rnd.Intn(200)
		if i%7 == 0 {
			n = 1 + rnd.Intn(8) // around and below the fold count
		}
		cfg := AutoConfig{
			Folds:      2 + rnd.Intn(5),
			MaxBuckets: []int{1, 16}[rnd.Intn(2)],
			MinImprove: 0.10,
			Seed:       int64(rnd.Intn(4)),
		}
		if i%11 == 0 {
			cfg.MinImprove = 0 // walk the whole error curve
		}
		res := resolutions[rnd.Intn(len(resolutions))]
		check(fmt.Sprintf("case %d (n=%d res=%v cfg=%+v)", i, n, res, cfg), trainingSamples(rnd, n), res, cfg)
	}

	// Every way the inputs can be bad, alone and in combination: the
	// error text, and which of several bad samples it names, must not
	// move.
	nan, inf := math.NaN(), math.Inf(1)
	good := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	with := func(at int, v float64, more ...float64) []float64 {
		s := append([]float64(nil), good...)
		s[at] = v
		for i, m := range more {
			s[(at+5+i)%len(s)] = m
		}
		return s
	}
	def := DefaultAutoConfig()
	for _, folds := range []int{-1, 0, 1} {
		cfg := def
		cfg.Folds = folds
		check(fmt.Sprintf("folds=%d", folds), good, 1, cfg)
		check(fmt.Sprintf("folds=%d bad everything", folds), with(0, nan), 0, cfg)
	}
	for _, res := range []float64{0, -1, math.NaN()} {
		check(fmt.Sprintf("resolution=%v", res), good, res, def)
		check(fmt.Sprintf("resolution=%v with NaN sample", res), with(3, nan), res, def)
		check(fmt.Sprintf("resolution=%v below the fold count", res), good[:3], res, def)
	}
	for at := range good {
		check(fmt.Sprintf("NaN at %d", at), with(at, nan), 1, def)
		check(fmt.Sprintf("+Inf at %d, NaN and -Inf later", at), with(at, inf, nan, math.Inf(-1)), 1, def)
		for _, folds := range []int{2, 3, 6} {
			cfg := def
			cfg.Folds = folds
			cfg.Seed = int64(at)
			check(fmt.Sprintf("-Inf at %d then NaN, %d folds", at, folds), with(at, math.Inf(-1), nan), 0.5, cfg)
		}
	}
	check("NaN below the fold count", []float64{1, nan}, 1, def)
	check("no samples", nil, 1, def)
	check("MaxBuckets 0", good, 1, AutoConfig{Folds: 3, MaxBuckets: 0, MinImprove: 0.1, Seed: 1})
	if cases < 3000 {
		t.Fatalf("only %d cases", cases)
	}
}

func TestTrainingDifferentialMulti(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	for i := 0; i < 300; i++ {
		n, d := 1+rnd.Intn(120), 1+rnd.Intn(3)
		cols := make([][]float64, d)
		for j := range cols {
			cols[j] = trainingSamples(rnd, n)
		}
		rows := make([][]float64, n)
		for r := range rows {
			rows[r] = make([]float64, d)
			for j := range cols {
				rows[r][j] = cols[j][r]
			}
		}
		cfg := FromSamplesConfig{
			Resolution: []float64{0.1, 0.5, 1, 2}[rnd.Intn(4)],
			Auto:       AutoConfig{Folds: 2 + rnd.Intn(5), MaxBuckets: 16, MinImprove: 0.1, Seed: 1},
		}
		if i%5 == 0 {
			cfg.FixedBuckets = 1 + rnd.Intn(4)
		}
		m, err := NewMultiFromSamples(rows, cfg)
		refused := false
		for j := range cols {
			want, wantErr := oracleDimBounds(cols[j], cfg)
			if wantErr != nil {
				// See the resolution note in the DP test below: the first
				// dimension the old code refused is the one refused now.
				if err == nil || err.Error() != fmt.Sprintf("hist: dim %d: %v", j, wantErr) {
					t.Fatalf("case %d dim %d: error %q, oracle %q", i, j, errText(err), errText(wantErr))
				}
				refused = true
				break
			}
			if err != nil {
				continue // a later dimension's refusal, checked when j reaches it
			}
			if got := m.Bounds(j); !sameFloats(got, want) {
				t.Fatalf("case %d dim %d: bounds %v, oracle %v", i, j, got, want)
			}
		}
		if err != nil && !refused {
			t.Fatalf("case %d: error %q where the oracle has none", i, err)
		}
	}
	bad := [][]float64{{1, 2}, {3, math.NaN()}, {5, 6}, {7, 8}, {9, 10}}
	cfg := defaultSamplesConfig()
	_, wantErr := oracleDimBounds([]float64{2, math.NaN(), 6, 8, 10}, cfg)
	_, gotErr := NewMultiFromSamples(bad, cfg)
	if wantErr == nil || gotErr == nil || gotErr.Error() != "hist: dim 1: "+wantErr.Error() {
		t.Fatalf("NewMultiFromSamples error %q, oracle %q", errText(gotErr), errText(wantErr))
	}
}

func TestTrainingDifferentialIncrementalDP(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for i := 0; i < 200; i++ {
		res := []float64{0.1, 0.5, 1, 2}[rnd.Intn(4)]
		raw, err := NewRaw(trainingSamples(rnd, 1+rnd.Intn(60)), res)
		if err != nil {
			t.Fatal(err)
		}
		grown := newVOptDP(raw)
		for b := 1; b <= raw.NumDistinct()+2; b++ {
			// At resolution 0.1 a snapped value plus the resolution can
			// overshoot the next value by an ulp, which the histogram
			// constructor refuses; the refusal must be the same one.
			want, wantErr := oracleVOptimal(raw, b)
			inc, incErr := grown.histogram(b)
			scratch, scratchErr := VOptimal(raw, b)
			if errText(incErr) != errText(wantErr) || errText(scratchErr) != errText(wantErr) {
				t.Fatalf("case %d b=%d: errors grown %q scratch %q oracle %q", i, b, errText(incErr), errText(scratchErr), errText(wantErr))
			}
			if !sameBuckets(inc, want) || !sameBuckets(scratch, want) {
				t.Fatalf("case %d b=%d over %d values:\n grown %v\nscratch %v\n oracle %v", i, b, raw.NumDistinct(), inc, scratch, want)
			}
		}
		// Asking again for fewer buckets reads the rows already there.
		for _, b := range []int{1, raw.NumDistinct() / 2, raw.NumDistinct()} {
			if b < 1 {
				continue
			}
			want, _ := oracleVOptimal(raw, b)
			if got, _ := grown.histogram(b); !sameBuckets(got, want) {
				t.Fatalf("case %d: re-reading b=%d after growing past it differs", i, b)
			}
		}
	}
	for _, b := range []int{0, -3} {
		raw, _ := NewRaw([]float64{1, 2, 3}, 1)
		_, wantErr := oracleVOptimal(raw, b)
		_, gotErr := VOptimal(raw, b)
		if errText(gotErr) != errText(wantErr) || gotErr == nil {
			t.Fatalf("b=%d: error %q, oracle %q", b, errText(gotErr), errText(wantErr))
		}
	}
	_, wantErr := oracleVOptimal(&Raw{}, 1)
	if _, gotErr := VOptimal(&Raw{}, 1); errText(gotErr) != errText(wantErr) || gotErr == nil {
		t.Fatalf("empty raw: error %q, oracle %q", errText(gotErr), errText(wantErr))
	}
}

func TestTrainingDifferentialNewRaw(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fixed := [][]float64{
		{negZero, 0}, {0, negZero}, {negZero, 0, negZero}, {0, negZero, 0},
		{-0.3, 0.2, 5}, {0.2, -0.3, -5}, {-0.3}, {0.4},
		{-7, -7, -2.5, 3, 3, 3, -2.5},
	}
	for _, samples := range fixed {
		for _, res := range []float64{0.1, 0.5, 1, 2} {
			want, _ := oracleNewRaw(samples, res)
			got, err := NewRaw(samples, res)
			if err != nil || !sameRaw(got, want) {
				t.Fatalf("NewRaw(%v, %v) = %+v (%v), oracle %+v", samples, res, got, err, want)
			}
		}
	}
	rnd := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		samples := make([]float64, 1+rnd.Intn(80))
		for j := range samples {
			samples[j] = rnd.NormFloat64() * float64(1+rnd.Intn(6))
		}
		res := []float64{0.1, 0.5, 1, 2}[rnd.Intn(4)]
		in := append([]float64(nil), samples...)
		want, _ := oracleNewRaw(samples, res)
		got, err := NewRaw(samples, res)
		if err != nil || !sameRaw(got, want) {
			t.Fatalf("case %d: NewRaw(%v, %v) = %+v (%v), oracle %+v", i, samples, res, got, err, want)
		}
		if !reflect.DeepEqual(samples, in) {
			t.Fatalf("case %d: NewRaw reordered its input", i)
		}
	}
	for _, c := range []struct {
		samples []float64
		res     float64
	}{
		{nil, 1}, {[]float64{1}, 0}, {[]float64{1}, -2}, {nil, 0},
		{[]float64{1, math.NaN(), math.Inf(1)}, 1}, {[]float64{math.Inf(-1), math.NaN()}, 1},
		{[]float64{math.NaN()}, 0},
	} {
		_, wantErr := oracleNewRaw(c.samples, c.res)
		_, gotErr := NewRaw(c.samples, c.res)
		if gotErr == nil || errText(gotErr) != errText(wantErr) {
			t.Fatalf("NewRaw(%v, %v): error %q, oracle %q", c.samples, c.res, errText(gotErr), errText(wantErr))
		}
	}
}

// The fold deal replays one seed's draws for every sample count, from
// goroutines that train in parallel (core.Build with Workers > 1): it
// must hand each the permutation a freshly seeded source would. Run
// with -race.
func TestTrainingDifferentialDealFoldsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				n, seed := rnd.Intn(150), int64(1+i/100%2) // the seed changes under the goroutines' feet
				want := rand.New(rand.NewSource(seed)).Perm(n)
				if got := dealFolds(n, seed); !reflect.DeepEqual(got, want) {
					t.Errorf("dealFolds(%d, %d) = %v, want %v", n, seed, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
