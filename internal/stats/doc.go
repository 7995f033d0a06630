// Package stats provides the statistical machinery behind the
// empirical study: distribution fitting against standard families,
// Kullback–Leibler divergence of a histogram from a raw distribution
// or from another histogram (package fidelity scores the accuracy
// figures with them), and differential entropy (the informativeness
// metric of Figure 15).
package stats
