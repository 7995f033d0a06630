package hist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// AutoConfig controls the self-tuning bucket-count selection of
// Section 3.1.
type AutoConfig struct {
	Folds      int     // f in f-fold cross validation
	MaxBuckets int     // upper bound on b during the search
	MinImprove float64 // relative error-drop below which the search stops
	Seed       int64   // RNG seed for the fold split (deterministic runs)
}

// DefaultAutoConfig mirrors the paper's setup: 5-fold cross
// validation, stop when adding a bucket improves the error by less
// than 10%.
func DefaultAutoConfig() AutoConfig {
	return AutoConfig{Folds: 5, MaxBuckets: 16, MinImprove: 0.10, Seed: 1}
}

// AutoResult reports what the Auto procedure measured: Errors[b-1] is
// the cross-validated error E_b of using b buckets (the Fig. 5(a)
// curve), and Chosen is the selected bucket count.
type AutoResult struct {
	Errors []float64
	Chosen int
}

// AutoBucketCount runs the Section 3.1 procedure on the cost samples:
// it increases b from 1, computing the f-fold cross-validated squared
// error E_b of the V-Optimal b-bucket histogram, and stops at the
// first b whose error is not a significant improvement over b−1,
// returning b−1.
func AutoBucketCount(samples []float64, resolution float64, cfg AutoConfig) (AutoResult, error) {
	res, _, err := autoSelect(samples, resolution, cfg)
	return res, err
}

// AutoHistogram selects the bucket count via AutoBucketCount and
// returns the V-Optimal histogram with that many buckets, built on the
// full sample set. This is the paper's "Auto" method.
func AutoHistogram(samples []float64, resolution float64, cfg AutoConfig) (*Histogram, AutoResult, error) {
	res, raw, err := autoSelect(samples, resolution, cfg)
	if err != nil {
		return nil, res, err
	}
	if raw == nil {
		if raw, err = NewRaw(samples, resolution); err != nil {
			return nil, res, err
		}
	}
	h, err := VOptimal(raw, res.Chosen)
	return h, res, err
}

// autoSelect is AutoBucketCount that also hands back the raw
// distribution of the full sample set, which the selection has to build
// anyway and every caller builds its histogram from; it is nil when
// there were too few samples to cross-validate and nothing was built.
//
// Each piece of work is done once per call: the samples are snapped and
// sorted once, the train and held-out distributions of every fold are
// integer counts subtracted from the full tally, and each fold keeps one
// V-Optimal program that grows a row per candidate b. The float
// operations are those of building every (b, fold) histogram from
// scratch, in the same order.
func autoSelect(samples []float64, resolution float64, cfg AutoConfig) (AutoResult, *Raw, error) {
	var res AutoResult
	if cfg.Folds < 2 {
		return res, nil, fmt.Errorf("hist: need at least 2 folds, got %d", cfg.Folds)
	}
	n, f := len(samples), cfg.Folds
	if n < f {
		// Too little data to cross-validate; a single bucket is the
		// only defensible choice.
		res.Chosen = 1
		res.Errors = []float64{0}
		return res, nil, nil
	}
	order := dealFolds(n, cfg.Seed)
	snapped, err := snapSamples(samples, resolution)
	if err != nil {
		// Name the sample the per-fold construction would have met
		// first: fold 0's training set (folds 1..f−1), then fold 0.
		met := make([]float64, 0, n)
		for k := 1; k <= f; k++ {
			for i := k % f; i < n; i += f {
				met = append(met, samples[order[i]])
			}
		}
		_, err = snapSamples(met, resolution)
		return res, nil, err
	}
	sorted := append([]float64(nil), snapped...)
	values, total := tally(sorted)
	full := rawFromCounts(values, total, n, resolution)

	// inFold[k*d+v] counts fold k's samples at distinct value v.
	d := len(values)
	inFold := make([]int, f*d)
	size := make([]int, f)
	for i, pi := range order {
		v, _ := slices.BinarySearch(values, snapped[pi])
		inFold[(i%f)*d+v]++
		size[i%f]++
	}
	type foldCV struct {
		dp      *voptDP
		heldOut *Raw
	}
	cv := make([]foldCV, f)
	train := make([]int, d)
	for k := range cv {
		held := inFold[k*d : (k+1)*d]
		for v := range train {
			train[v] = total[v] - held[v]
		}
		cv[k] = foldCV{
			dp:      newVOptDP(rawFromCounts(values, train, n-size[k], resolution)),
			heldOut: rawFromCounts(values, held, size[k], resolution),
		}
	}

	maxB := cfg.MaxBuckets
	if maxB < 1 {
		maxB = 1
	}
	prev := -1.0
	chosen := 1
	for b := 1; b <= maxB; b++ {
		// E_b: the squared error of each fold's b-bucket histogram
		// against the fold it did not see, averaged over folds.
		var sum float64
		for _, c := range cv {
			h, err := c.dp.histogram(b)
			if err != nil {
				return res, nil, err
			}
			sum += h.SquaredError(c.heldOut)
		}
		eb := sum / float64(f)
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
	return res, full, nil
}

// StaticHistogram is the paper's Sta-b baseline: a V-Optimal histogram
// with a fixed bucket count b.
func StaticHistogram(samples []float64, resolution float64, b int) (*Histogram, error) {
	raw, err := NewRaw(samples, resolution)
	if err != nil {
		return nil, err
	}
	return VOptimal(raw, b)
}

// dealFolds deals n sample positions into near-equal folds at random:
// it returns rand.New(rand.NewSource(seed)).Perm(n), whose i-th entry
// goes to fold i mod f. Perm's i-th draw is Intn(i+1) whatever n is, so
// the draws of one seed are one sequence that every n reads a prefix
// of; the last seed's are kept, because seeding a source (607 words)
// costs more than dealing a few dozen samples and a model is trained
// under one seed.
func dealFolds(n int, seed int64) []int {
	deal.Lock()
	if deal.rnd == nil || deal.seed != seed {
		deal.seed, deal.rnd, deal.draws = seed, rand.New(rand.NewSource(seed)), nil
	}
	for i := len(deal.draws); i < n; i++ {
		deal.draws = append(deal.draws, int32(deal.rnd.Intn(i+1)))
	}
	draws := deal.draws[:n] // never rewritten: later calls only append
	deal.Unlock()

	m := make([]int, n)
	for i, j := range draws {
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// deal is dealFolds' memo: a pure function of the seed, so sharing it
// across callers changes no result.
var deal struct {
	sync.Mutex
	seed  int64
	rnd   *rand.Rand
	draws []int32
}
