package routing

import "fmt"

// SkylinePaths answers a stochastic-skyline style query (in the spirit
// of Yang et al. [22], the third routing family the paper integrates
// with): among candidate paths from source to destination, return
// those whose travel-time distribution is not first-order
// stochastically dominated by any other candidate's. Dominated paths
// are never preferable to any risk attitude; the skyline is what a
// rational traveller chooses from.
//
// Candidates come from a top-k exploration (k = maxCandidates); the
// skyline filter then removes dominated entries.
func (r *Router) SkylinePaths(q Query, maxCandidates int, opt Options) ([]TopKResult, error) {
	if maxCandidates < 1 {
		return nil, fmt.Errorf("routing: maxCandidates = %d must be ≥ 1", maxCandidates)
	}
	cands, err := r.TopKPaths(q, maxCandidates, opt)
	if err != nil {
		return nil, err
	}
	return skyline(cands), nil
}

// skyline returns the candidates no other candidate strictly
// first-order dominates, in their order.
func skyline(cands []TopKResult) []TopKResult {
	var out []TopKResult
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.Dist.Dominates(c.Dist) && !c.Dist.Dominates(d.Dist) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}
