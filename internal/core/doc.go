// Package core implements the paper's central contribution: the
// hybrid graph and its query machinery.
//
// Paper-section map:
//
//   - Section 2.1 (problem setting): consumed via package gps — core
//     reads (path, departure, per-edge cost) observations from a
//     gps.Collection.
//   - Section 2.2: GroundTruth, the accuracy-optimal baseline that
//     needs ≥ β qualifying trajectories and therefore suffers the
//     sparseness problem. Traversals is the sample scan under it and
//     under the accuracy experiments' truths (package fidelity).
//   - Section 2.3: MethodLB, the legacy independent-edge convolution
//     baseline with progressively updated arrival intervals.
//   - Section 3 (hybrid graph G = (V, E, W_P)): Build instantiates
//     rank-1 variables per edge and α-interval (Section 3.1, with the
//     speed-limit fallback for uncovered edges) and grows higher-rank
//     joint variables bottom-up wherever ≥ β qualified trajectories
//     support them (Section 3.2). Params carries α, β and the
//     implementation bounds; Params.Workers shards instantiation
//     across a goroutine pool with results identical to a serial
//     build (ForEachVariable and model serialization are
//     deterministic, so serial and parallel models are byte-equal).
//   - Section 4 (queries): BuildCandidateArray applies the spatial
//     and temporal (shift-and-enlarge, Eq. 3) relevance tests;
//     CoarsestDecomposition is Algorithm 1; CostDistribution computes
//     Equation 2 by chain multiplication followed by the Section 4.2
//     marginalization. Theorems 1–4 are exercised in theorem_test.go.
//   - Section 5 (empirical study): the estimator family — MethodOD
//     (and its rank-capped OD-x variants), MethodRD, MethodHP,
//     MethodLB — plus BuildStats, EvalStats and Timing, which
//     instrument the figures.
//
// Beyond the paper, PathState implements the incremental property of
// Section 4.3 ("path + another edge" reuses the chain evaluation of
// the path): StartPath and ExtendPathWithin (ExtendPath is its
// no-limit spelling) extend a parent's state by one factor, which is
// all a routing search does. Across queries, ConvMemo stores chain
// states keyed by the exact departure time; a model epoch holds one
// view of it (ForEpoch). It is read in one place, the path-state
// evaluator behind CostDistributionCtx (CostDistribution and
// CostDistributionMemo are its no-memo and memo spellings) and, with
// the memo on, the first segment of EvaluateSegment: it finds the
// longest stored prefix and offers each new state, so repeated and
// overlapping distribution queries reuse one another's prefixes with
// byte-identical results.
//
// One extension does each piece of kernel work at most once, chosen by
// the state and factor in hand: a child resumes from the fold its
// parent already holds instead of folding the parent's state again, so
// siblings share it; a child whose cost support provably starts at or
// above the caller's remaining budget is settled — an exact zero —
// before any multiply or fold (chainState.supportMin); and a fold that
// keeps no dimension, which is nearly all of them, runs as the 1-D
// convolution it is. A state keeps only what its children read: its
// folded chain states and the departure interval past its last edge.
// A child reads the decomposition off its parent's when no variable
// ends at the new edge (PathState.decompose), and the rare child that
// folds the parent's last product again rebuilds that product
// (PathState.lastProduct). A search builds each state into a PathSlot
// of its own, so a sibling reuses the storage of the state before it
// and recycles the chain states that state computed itself; a memo
// state has no slot and is never recycled. docs/ARCHITECTURE.md ("What
// one routing expansion costs") has the measurements and the proof.
//
// Every evaluator runs one chain loop, runChain: the memo-free
// CostDistribution and every EvaluateSegment segment the memo does not
// serve (a continuation starts from the relayed state, which the chain
// only reads), and PathState's extension (keeping each folded state
// for its children). One storage rule holds for all of them: a folded
// state lives in a slot, and taking a slot for the next state releases
// the one it held. The slots are a PathSlot's, one per factor, or a
// pooled two-slot ring for a chain whose intermediate states nobody
// reads; a memo state has no slot and is never released. A ChainState
// handle owns its state exactly when it holds that state's ring — a
// memo-free segment's final state, or a decoded one — and Release
// pools the ring back. One entry, decomposeFrom, builds the candidate
// array and picks the decomposition by method for all of them.
//
// A chain step whose state has no open dimension and whose factor
// shares no edge with the next (nearly every step, the last factor of
// a PathState included) is one fused convolve-and-fold, byte-identical
// to multiply + foldTo; see chainState.convolveFold and
// docs/ARCHITECTURE.md ("What one chain step costs").
//
// Query evaluation is bit-deterministic by construction: float
// accumulation over hyper-buckets always runs in sorted cell order,
// and temporal-relevance ties break toward the earliest interval —
// never map iteration order.
//
// A trained HybridGraph is safe for concurrent readers; training
// itself is single-writer.
package core
