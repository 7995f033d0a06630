package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// These tests verify the paper's theorems numerically on exact
// discrete joints (unit-width buckets make differential and discrete
// entropy coincide). The estimated joint p̂ of a decomposition is
// computed by Equation 2 with factors that are exact marginals of the
// true joint p, which is the setting of Theorems 2 and 3.

// randomJoint3 builds a random strictly-positive 3-variable joint
// distribution on a 2×2×2 grid of unit buckets.
func randomJoint3(seed int64) *hist.Multi {
	rnd := rand.New(rand.NewSource(seed))
	m, err := hist.NewMulti([][]float64{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				m.SetCell([]int{i, j, k}, 0.05+rnd.Float64())
			}
		}
	}
	if err := m.Normalize(); err != nil {
		panic(err)
	}
	return m
}

// estimatePairChain computes p̂(c0,c1,c2) = p(c0,c1)·p(c1,c2)/p(c1)
// (the DE = (⟨e0,e1⟩, ⟨e1,e2⟩) decomposition) as a dense cell map.
func estimatePairChain(p *hist.Multi) map[[3]int]float64 {
	p01, _ := p.MarginalOnto([]int{0, 1})
	p12, _ := p.MarginalOnto([]int{1, 2})
	p1, _ := p.MarginalOnto([]int{1})
	out := make(map[[3]int]float64)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			den := cell(p1, []int{j})
			for k := 0; k < 2; k++ {
				if den > 0 {
					out[[3]int{i, j, k}] = cell(p01, []int{i, j}) * cell(p12, []int{j, k}) / den
				}
			}
		}
	}
	return out
}

// estimateIndependent computes p̂ = p(c0)·p(c1)·p(c2) (the legacy
// all-unit decomposition).
func estimateIndependent(p *hist.Multi) map[[3]int]float64 {
	m0, _ := p.MarginalOnto([]int{0})
	m1, _ := p.MarginalOnto([]int{1})
	m2, _ := p.MarginalOnto([]int{2})
	out := make(map[[3]int]float64)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				out[[3]int{i, j, k}] = cell(m0, []int{i}) * cell(m1, []int{j}) * cell(m2, []int{k})
			}
		}
	}
	return out
}

func jointCell(p *hist.Multi, i, j, k int) float64 {
	return cell(p, []int{i, j, k})
}

func klCells(p *hist.Multi, q map[[3]int]float64) float64 {
	var kl float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				pv := jointCell(p, i, j, k)
				if pv <= 0 {
					continue
				}
				kl += pv * math.Log(pv/q[[3]int{i, j, k}])
			}
		}
	}
	return kl
}

func entropyCells(q map[[3]int]float64) float64 {
	var e float64
	for _, v := range q {
		if v > 0 {
			e -= v * math.Log(v)
		}
	}
	return e
}

func entropyJoint(p *hist.Multi) float64 {
	var e float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				v := jointCell(p, i, j, k)
				if v > 0 {
					e -= v * math.Log(v)
				}
			}
		}
	}
	return e
}

// TestTheorem2Identity verifies KL(p, p̂_DE) = H_DE(C_P) − H(C_P)
// (Theorem 2) for random joints under both the pair-chain and the
// independent decompositions.
func TestTheorem2Identity(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := randomJoint3(seed)
		hP := entropyJoint(p)
		for name, est := range map[string]map[[3]int]float64{
			"pair-chain":  estimatePairChain(p),
			"independent": estimateIndependent(p),
		} {
			kl := klCells(p, est)
			hDE := entropyCells(est)
			if math.Abs(kl-(hDE-hP)) > 1e-9 {
				t.Fatalf("seed %d %s: KL %v != H_DE−H = %v", seed, name, kl, hDE-hP)
			}
			if kl < -1e-12 {
				t.Fatalf("seed %d %s: negative KL %v", seed, name, kl)
			}
		}
	}
}

// TestTheorem3CoarserIsBetter verifies that the coarser decomposition
// (pair chain) never has larger divergence than the finer independent
// one (Theorem 3), and that a rank-3 "decomposition" (the joint
// itself) is exact.
func TestTheorem3CoarserIsBetter(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		p := randomJoint3(seed)
		klPair := klCells(p, estimatePairChain(p))
		klInd := klCells(p, estimateIndependent(p))
		if klPair > klInd+1e-9 {
			t.Fatalf("seed %d: KL(pair)=%v > KL(independent)=%v", seed, klPair, klInd)
		}
		// The full joint as its own (single-path) decomposition is exact.
		exact := make(map[[3]int]float64)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for k := 0; k < 2; k++ {
					exact[[3]int{i, j, k}] = jointCell(p, i, j, k)
				}
			}
		}
		if kl := klCells(p, exact); kl > 1e-12 {
			t.Fatalf("seed %d: exact decomposition has KL %v", seed, kl)
		}
	}
}

// TestTheorem1MarginalEntropy verifies the Theorem 1 building block:
// Σ_{C_P} p(C_P) · log p(C_{P′}) = −H(C_{P′}) for a sub-path marginal.
func TestTheorem1MarginalEntropy(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		p := randomJoint3(seed)
		p01, _ := p.MarginalOnto([]int{0, 1})
		// LHS: expectation over the full joint of log of the marginal.
		var lhs float64
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for k := 0; k < 2; k++ {
					pv := jointCell(p, i, j, k)
					if pv > 0 {
						lhs += pv * math.Log(cell(p01, []int{i, j}))
					}
				}
			}
		}
		// RHS: −H of the marginal.
		var h01 float64
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				v := cell(p01, []int{i, j})
				if v > 0 {
					h01 -= v * math.Log(v)
				}
			}
		}
		if math.Abs(lhs-(-h01)) > 1e-9 {
			t.Fatalf("seed %d: Theorem 1 identity violated: %v vs %v", seed, lhs, -h01)
		}
	}
}
