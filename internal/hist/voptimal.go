package hist

import (
	"fmt"
	"math"
)

// VOptimal builds the error-optimal b-bucket histogram over the raw
// distribution using the dynamic program of Jagadish et al. [12]:
// buckets partition the sorted distinct values, and the error of a
// bucket is the sum over the *value lattice* it spans (at the raw
// distribution's resolution) of squared deviations between the bucket's
// uniform per-lattice-point estimate and the raw probability. Counting
// empty lattice points penalizes buckets that span gaps between modes,
// which is what makes V-Optimal separate a multi-modal travel-time
// distribution. O(b·n²) time with O(1) per-cell error via prefix sums.
//
// The resulting buckets span [first value, last value + resolution) of
// each run so that every observed value lies inside a bucket.
func VOptimal(d *Raw, b int) (*Histogram, error) {
	if len(d.Entries) == 0 {
		return nil, fmt.Errorf("hist: empty raw distribution")
	}
	if b < 1 {
		return nil, fmt.Errorf("hist: bucket count %d < 1", b)
	}
	return newVOptDP(d).histogram(b)
}

// voptDP is the V-Optimal dynamic program over one raw distribution,
// grown a row at a time: row k (the best k-bucket covers of every
// prefix) depends only on row k−1, so the rows of a b-bucket histogram
// are the first rows of the (b+1)-bucket one and the Auto search, which
// asks for b = 1, 2, 3, … over the same distribution, pays for each row
// once.
type voptDP struct {
	d         *Raw
	pre, pre2 []float64 // prefix sums of probability and its square
	totalSpan float64
	rows      int       // rows computed so far
	last      []float64 // dp[rows][j]: min error of covering values 0..j-1 with rows buckets
	spare     []float64 // the row before last, reused for the next one
	cut       []int     // cut[k*(n+1)+j]: first value of the last bucket of dp[k][j]
}

func newVOptDP(d *Raw) *voptDP {
	n := len(d.Entries)
	slab := make([]float64, 4*(n+1))
	p := &voptDP{
		d:     d,
		pre:   slab[0 : n+1 : n+1],
		pre2:  slab[n+1 : 2*(n+1) : 2*(n+1)],
		last:  slab[2*(n+1) : 3*(n+1) : 3*(n+1)],
		spare: slab[3*(n+1):],
		cut:   make([]int, n+1, 4*(n+1)),
	}
	for i, e := range d.Entries {
		p.pre[i+1] = p.pre[i] + e.Perc
		p.pre2[i+1] = p.pre2[i] + e.Perc*e.Perc
	}
	p.totalSpan = math.Round((d.Entries[n-1].Value-d.Entries[0].Value)/d.Resolution) + 1
	for j := 1; j <= n; j++ {
		p.last[j] = math.Inf(1)
	}
	return p
}

// sse is the lattice error of a bucket covering values i..j inclusive:
// with m lattice points in the span and mass S, the uniform estimate
// is S/m at each point, so the error is Σ p_c² − S²/m (absent lattice
// points contribute (S/m)² each).
func (p *voptDP) sse(i, j int) float64 {
	d := p.d
	m := math.Round((d.Entries[j].Value-d.Entries[i].Value)/d.Resolution) + 1
	s := p.pre[j+1] - p.pre[i]
	s2 := p.pre2[j+1] - p.pre2[i]
	v := s2 - s*s/m
	if v < 0 {
		v = 0 // numeric guard
	}
	// Tie-breaker: among equal-error partitions (e.g. perfectly
	// uniform data, where every partition has zero error) prefer
	// balanced bucket widths. The penalty is far below any real
	// error difference, so optimality is unaffected.
	return v + 1e-12*(m/p.totalSpan)*(m/p.totalSpan)
}

// growTo computes rows up to b, which is at most the number of distinct
// values.
func (p *voptDP) growTo(b int) {
	n := len(p.d.Entries)
	inf := math.Inf(1)
	for p.rows < b {
		k := p.rows + 1
		prev, cur := p.last, p.spare
		p.cut = append(p.cut, make([]int, n+1)...)
		cut := p.cut[k*(n+1):]
		for j := 0; j < k; j++ {
			cur[j] = inf
		}
		for j := k; j <= n; j++ {
			// Last bucket covers values i..j-1.
			best, arg := inf, 0
			for i := k - 1; i < j; i++ {
				if prev[i] == inf {
					continue
				}
				if c := prev[i] + p.sse(i, j-1); c < best {
					best, arg = c, i
				}
			}
			cur[j], cut[j] = best, arg
		}
		p.last, p.spare, p.rows = cur, prev, k
	}
}

// histogram returns the error-optimal histogram with min(b, n) buckets
// (more buckets than distinct values cannot help), growing the program
// as far as that needs.
func (p *voptDP) histogram(b int) (*Histogram, error) {
	d := p.d
	n := len(d.Entries)
	if b > n {
		b = n
	}
	p.growTo(b)
	bs := make([]Bucket, b)
	j := n
	for k := b; k >= 1; k-- {
		i := p.cut[k*(n+1)+j]
		bs[k-1] = Bucket{
			Lo: d.Entries[i].Value,
			Hi: d.Entries[j-1].Value + d.Resolution,
			Pr: p.pre[j] - p.pre[i],
		}
		j = i
	}
	return fromBucketsOwned(bs)
}
