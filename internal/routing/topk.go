package routing

import (
	"context"

	"repro/internal/graph"
	"repro/internal/hist"
)

// TopKResult is one ranked path of a probabilistic top-k query.
type TopKResult struct {
	Path graph.Path
	Prob float64
	Dist *hist.Histogram
}

// TopKPaths answers the probabilistic top-k path query of Hua & Pei
// [10]: the k loop-free paths from source to destination with the
// highest probability of arriving within the budget, best first. It is
// the one search BestPath runs, keeping k incumbents instead of one;
// pruning compares against the k-th best.
func (r *Router) TopKPaths(q Query, k int, opt Options) ([]TopKResult, error) {
	return r.TopKPathsCtx(nil, q, k, opt)
}

// TopKPathsCtx is TopKPaths bounded by ctx (nil = unbounded): the
// deadline is checked once per expansion, and a search it cuts short
// returns ctx's error and no partial result.
func (r *Router) TopKPathsCtx(ctx context.Context, q Query, k int, opt Options) ([]TopKResult, error) {
	ranked, _, _, err := r.search(ctx, q, k, opt)
	return ranked, err
}

// topKHeap is a min-heap on probability, so the k-th best incumbent is
// on top and cheap to replace. Its two sift steps are container/heap's,
// comparison for comparison and swap for swap, written for the one
// element type so the search's state is never boxed.
type topKHeap []TopKResult

// up restores the heap order after entry j was appended.
func (h topKHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Prob < h[i].Prob) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap order of the first n entries after entry i
// was replaced.
func (h topKHeap) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].Prob < h[j].Prob {
			j = r
		}
		if !(h[j].Prob < h[i].Prob) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
