// Package hist implements the distribution machinery of Dai et al.
// (PVLDB 2016): the histogram representations that serve as the
// hybrid graph's weights and the factor operations that combine them.
//
// Paper-section map:
//
//   - Section 3.1: one-dimensional V-Optimal histograms (voptimal.go)
//     with automatic bucket-count selection by f-fold cross validation
//     (auto.go, AutoHistogram); StaticHistogram is the Sta-b baseline
//     of Figure 5. The selection does each piece of work once: one
//     snap-and-sort of the samples (raw.go, tally), fold distributions
//     as integer counts subtracted from the full tally, and one
//     V-Optimal program per fold that grows a row per candidate bucket
//     count (voptDP) — the same float operations, in the same order,
//     as building every (bucket count, fold) histogram from scratch,
//     which train_oracle_test.go keeps as the reference.
//   - Section 3.2: multi-dimensional histograms over hyper-buckets
//     (multidim.go, Multi), stored sparsely as an occupied-cell map,
//     including the factor operations — remapping onto union grids,
//     marginalization, sum distributions — needed to evaluate the
//     decomposable-model estimate of Equation 2.
//   - Section 4.2: the bucket-rearrangement marginalization
//     (SumHistogram, RearrangedCuts) and compression used when folding
//     accumulated-cost dimensions.
//
// Histograms use uniform-within-bucket semantics throughout, exactly
// as the paper's Figure 7 worked example assumes. Multi.ForEachSorted
// visits cells in key order, so consumers that need reproducible
// output (e.g. model serialization) get it for free.
package hist
