package hist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The training path as it stood before it learned to share work: a
// map-counted NewRaw, a V-Optimal program restarted from row 1 on
// every call, and a cross-validation that rebuilds both raw
// distributions and the whole program for every (bucket count, fold)
// pair. Kept verbatim as the reference the differential tests in
// train_diff_test.go compare the production code against, bit for bit.

func oracleNewRaw(samples []float64, resolution float64) (*Raw, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("hist: no samples")
	}
	if resolution <= 0 {
		return nil, fmt.Errorf("hist: resolution must be positive, got %v", resolution)
	}
	counts := make(map[float64]int, len(samples))
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("hist: invalid sample %v", s)
		}
		v := math.Round(s/resolution) * resolution
		counts[v]++
	}
	r := &Raw{Resolution: resolution, Entries: make([]ValueFreq, 0, len(counts))}
	n := float64(len(samples))
	for v, c := range counts {
		r.Entries = append(r.Entries, ValueFreq{Value: v, Perc: float64(c) / n})
	}
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Value < r.Entries[j].Value })
	return r, nil
}

func oracleVOptimal(d *Raw, b int) (*Histogram, error) {
	n := len(d.Entries)
	if n == 0 {
		return nil, fmt.Errorf("hist: empty raw distribution")
	}
	if b < 1 {
		return nil, fmt.Errorf("hist: bucket count %d < 1", b)
	}
	if b > n {
		b = n
	}

	pre := make([]float64, n+1)
	pre2 := make([]float64, n+1)
	for i, e := range d.Entries {
		pre[i+1] = pre[i] + e.Perc
		pre2[i+1] = pre2[i] + e.Perc*e.Perc
	}
	totalSpan := math.Round((d.Entries[n-1].Value-d.Entries[0].Value)/d.Resolution) + 1
	sse := func(i, j int) float64 {
		m := math.Round((d.Entries[j].Value-d.Entries[i].Value)/d.Resolution) + 1
		s := pre[j+1] - pre[i]
		s2 := pre2[j+1] - pre2[i]
		v := s2 - s*s/m
		if v < 0 {
			v = 0
		}
		return v + 1e-12*(m/totalSpan)*(m/totalSpan)
	}

	dp := make([][]float64, b+1)
	cut := make([][]int, b+1)
	for k := range dp {
		dp[k] = make([]float64, n+1)
		cut[k] = make([]int, n+1)
		for j := range dp[k] {
			dp[k][j] = math.Inf(1)
		}
	}
	dp[0][0] = 0
	for k := 1; k <= b; k++ {
		for j := k; j <= n; j++ {
			for i := k - 1; i < j; i++ {
				if dp[k-1][i] == math.Inf(1) {
					continue
				}
				c := dp[k-1][i] + sse(i, j-1)
				if c < dp[k][j] {
					dp[k][j] = c
					cut[k][j] = i
				}
			}
		}
	}

	bounds := make([]int, 0, b+1)
	j := n
	for k := b; k >= 1; k-- {
		bounds = append(bounds, j)
		j = cut[k][j]
	}
	bounds = append(bounds, 0)
	for l, r := 0, len(bounds)-1; l < r; l, r = l+1, r-1 {
		bounds[l], bounds[r] = bounds[r], bounds[l]
	}

	bs := make([]Bucket, 0, b)
	for k := 0; k+1 < len(bounds); k++ {
		i, jj := bounds[k], bounds[k+1]-1
		lo := d.Entries[i].Value
		hi := d.Entries[jj].Value + d.Resolution
		pr := pre[jj+1] - pre[i]
		bs = append(bs, Bucket{Lo: lo, Hi: hi, Pr: pr})
	}
	return FromBuckets(bs)
}

func oracleSplitFolds(samples []float64, f int, seed int64) [][]float64 {
	rnd := rand.New(rand.NewSource(seed))
	perm := rnd.Perm(len(samples))
	folds := make([][]float64, f)
	for i, pi := range perm {
		k := i % f
		folds[k] = append(folds[k], samples[pi])
	}
	return folds
}

func oracleCVError(folds [][]float64, resolution float64, b int) (float64, error) {
	var total float64
	n := 0
	for k := range folds {
		if len(folds[k]) == 0 {
			continue
		}
		var train []float64
		for j := range folds {
			if j != k {
				train = append(train, folds[j]...)
			}
		}
		if len(train) == 0 {
			continue
		}
		trainRaw, err := oracleNewRaw(train, resolution)
		if err != nil {
			return 0, err
		}
		h, err := oracleVOptimal(trainRaw, b)
		if err != nil {
			return 0, err
		}
		heldOut, err := oracleNewRaw(folds[k], resolution)
		if err != nil {
			return 0, err
		}
		total += h.SquaredError(heldOut)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("hist: all folds empty")
	}
	return total / float64(n), nil
}

func oracleAutoBucketCount(samples []float64, resolution float64, cfg AutoConfig) (AutoResult, error) {
	var res AutoResult
	if cfg.Folds < 2 {
		return res, fmt.Errorf("hist: need at least 2 folds, got %d", cfg.Folds)
	}
	if len(samples) < cfg.Folds {
		res.Chosen = 1
		res.Errors = []float64{0}
		return res, nil
	}
	folds := oracleSplitFolds(samples, cfg.Folds, cfg.Seed)

	maxB := cfg.MaxBuckets
	if maxB < 1 {
		maxB = 1
	}
	prev := -1.0
	chosen := 1
	for b := 1; b <= maxB; b++ {
		eb, err := oracleCVError(folds, resolution, b)
		if err != nil {
			return res, err
		}
		res.Errors = append(res.Errors, eb)
		if prev >= 0 {
			if prev <= 0 || (prev-eb) < cfg.MinImprove*prev {
				chosen = b - 1
				break
			}
			chosen = b
		}
		prev = eb
	}
	if chosen < 1 {
		chosen = 1
	}
	res.Chosen = chosen
	return res, nil
}

func oracleAutoHistogram(samples []float64, resolution float64, cfg AutoConfig) (*Histogram, AutoResult, error) {
	res, err := oracleAutoBucketCount(samples, resolution, cfg)
	if err != nil {
		return nil, res, err
	}
	raw, err := oracleNewRaw(samples, resolution)
	if err != nil {
		return nil, res, err
	}
	h, err := oracleVOptimal(raw, res.Chosen)
	return h, res, err
}

// oracleDimBounds is the per-dimension half of the old
// NewMultiFromSamples: a second NewRaw after the selection's own, then
// the grid boundaries read off the V-Optimal histogram.
func oracleDimBounds(col []float64, cfg FromSamplesConfig) ([]float64, error) {
	b := cfg.FixedBuckets
	if b <= 0 {
		res, err := oracleAutoBucketCount(col, cfg.Resolution, cfg.Auto)
		if err != nil {
			return nil, err
		}
		b = res.Chosen
	}
	raw, err := oracleNewRaw(col, cfg.Resolution)
	if err != nil {
		return nil, err
	}
	h, err := oracleVOptimal(raw, b)
	if err != nil {
		return nil, err
	}
	bd := make([]float64, 0, h.NumBuckets()+1)
	for _, b := range h.Buckets() {
		bd = append(bd, b.Lo)
	}
	return append(bd, h.Max()), nil
}
