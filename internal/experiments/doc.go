// Package experiments regenerates every table and figure of the
// paper's empirical study (Section 5) on the synthetic-city substitute
// workloads. Each FigNN function returns a Table whose rows mirror the
// series the paper plots, and cmd/experiments renders them. The
// accuracy figures (4, 11, 13, 14) sample, hold out and score through
// package fidelity, the one ruler.
package experiments
