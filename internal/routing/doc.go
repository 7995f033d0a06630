// Package routing implements the DFS-based stochastic routing
// algorithm the paper integrates its estimator into (Section 4.3 and
// Figure 18): a probabilistic budget query in the style of Hua and
// Pei [10] that searches for the path maximizing the probability of
// arriving within a travel-time budget, pruning candidates whose
// optimistic arrival probability cannot beat the incumbent.
//
// The path-cost estimator is pluggable (OD / HP / LB — any core
// method), which is exactly how the paper compares LB-DFS, HP-DFS and
// OD-DFS. Every expansion resumes from its parent's chain-evaluation
// state, so each edge extension costs one factor multiplication instead
// of a full re-evaluation. There is one search: it keeps the k best
// complete paths, BestPath is its top-1 answer, TopKPaths (topk.go) its
// top-k and SkylinePaths (skyline.go) filters a top-k to the stochastic
// skyline.
//
// A search resumes each expansion from its parent's state only: it
// never reads the convolution memo (core.ConvMemo), which serves
// distribution queries. On
// routing workloads a memo probe per expansion cost more than its rare
// hits saved (docs/ARCHITECTURE.md, "Reuse hierarchy").
//
// Each expansion hands the extend its remaining budget (the budget
// less the admissible lower bound to the destination), so a prefix
// whose whole cost support lies at or above it — its pruning bound is
// exactly 0 — is counted explored and pruned without being evaluated
// (core.ExtendPathWithin); prefixes that reach the destination are
// always evaluated. BestPathCtx and TopKPathsCtx bound a search by a
// context, checked once per expansion; a dead deadline returns its
// error and no partial result.
//
// An expansion allocates nothing. The search builds each child into a
// core.PathSlot it keeps per depth, so the next sibling reuses the
// child's storage and recycles the chain states it computed; searchers,
// with their slots, visited set and frontier, are pooled. The pruning
// bound is read off the child's final chain state in pooled scratch
// (core.PathState.CDF), and only a complete path that enters the top k
// gets a distribution and a path of its own.
package routing
