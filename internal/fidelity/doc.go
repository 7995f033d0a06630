// Package fidelity is the one ruler of the accuracy experiments
// (Section 5.2, Figures 4, 11, 13 and 14). It collects the qualified
// traversals of a query path in one α-interval, trains the held-out
// model the Figure 13/14 protocol scores, and measures an estimate
// against the traversals' raw value lattice — keeping the paper's
// Auto-histogram truth as a second ruler — together with the PIT of
// the observations and the counters of what an answer is made of:
// speed-limit fallback factors and sliver buckets.
package fidelity
