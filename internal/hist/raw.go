package hist

import (
	"fmt"
	"math"
	"slices"
)

// DefaultResolution is the granularity at which raw cost values are
// snapped before histogram construction. Travel times are treated at
// one-second resolution, matching the integer-second costs in the
// paper's figures.
const DefaultResolution = 1.0

// ValueFreq is one entry of a raw cost distribution: perc percent of
// the qualified trajectories took cost Value (Section 3.1's
// ⟨cost, perc⟩ pairs).
type ValueFreq struct {
	Value float64
	Perc  float64
}

// Raw is a raw cost distribution: a normalized multiset of cost
// values. Values are strictly increasing and Perc sums to 1.
type Raw struct {
	Entries    []ValueFreq
	Resolution float64 // lattice step between representable values
}

// NewRaw builds a raw distribution from cost samples, snapping each
// sample to the given resolution (use DefaultResolution for seconds).
// It returns an error on an empty sample set or non-positive
// resolution, since a distribution cannot be formed.
func NewRaw(samples []float64, resolution float64) (*Raw, error) {
	snapped, err := snapSamples(samples, resolution)
	if err != nil {
		return nil, err
	}
	values, counts := tally(snapped)
	return rawFromCounts(values, counts, len(samples), resolution), nil
}

// snapSamples validates the inputs of a raw distribution and returns
// the samples snapped to the resolution lattice, in sample order.
func snapSamples(samples []float64, resolution float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("hist: no samples")
	}
	if resolution <= 0 {
		return nil, fmt.Errorf("hist: resolution must be positive, got %v", resolution)
	}
	snapped := make([]float64, len(samples))
	for i, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("hist: invalid sample %v", s)
		}
		snapped[i] = math.Round(s/resolution) * resolution
	}
	return snapped, nil
}

// tally sorts the snapped samples in place and compacts them, in the
// same storage, to their distinct values, ascending, returned with the
// multiplicity of each. −0 and +0 are one value; its representative is
// the zero that comes last in sample order, the key a map[float64]int
// counted in that order ends up holding.
func tally(snapped []float64) (values []float64, counts []int) {
	var zero float64
	for _, v := range snapped {
		if v == 0 {
			zero = v
		}
	}
	slices.Sort(snapped)
	distinct := 1
	for i := 1; i < len(snapped); i++ {
		if snapped[i] != snapped[i-1] {
			distinct++
		}
	}
	values, counts = snapped[:0], make([]int, 0, distinct)
	for i := 0; i < len(snapped); {
		j := i + 1
		for j < len(snapped) && snapped[j] == snapped[i] {
			j++
		}
		v := snapped[i]
		if v == 0 {
			v = zero
		}
		values = append(values, v) // writes at or before i: nothing unread is lost
		counts = append(counts, j-i)
		i = j
	}
	return values, counts
}

// rawFromCounts normalizes value multiplicities over n samples into a
// raw distribution, skipping values that do not occur.
func rawFromCounts(values []float64, counts []int, n int, resolution float64) *Raw {
	r := &Raw{Resolution: resolution, Entries: make([]ValueFreq, 0, len(values))}
	for i, c := range counts {
		if c > 0 {
			r.Entries = append(r.Entries, ValueFreq{Value: values[i], Perc: float64(c) / float64(n)})
		}
	}
	return r
}

// NumDistinct returns the number of distinct cost values.
func (r *Raw) NumDistinct() int { return len(r.Entries) }

// StorageEntries returns the number of (cost, frequency) pairs the raw
// form needs; the paper's Figure 11(c) space-saving ratio compares
// this against the histogram's bucket count.
func (r *Raw) StorageEntries() int { return len(r.Entries) }
