package pathcost

// The batch planner is gone: a batch answers its entries in order
// through the single-query path, and overlapping entries share their
// prefixes through the convolution memo. What the benchmark module
// still compiles against stays here until a benchmark change drops it
// (ROADMAP item 1); nothing else in this module may use it.

// PlanStats once instrumented one planned batch. Nothing fills it now.
//
// Deprecated: there is no planner; see ROADMAP item 1.
type PlanStats struct {
	Convolutions, IndependentSteps int
}

// SavedSteps is the chain steps a plan avoided: none.
//
// Deprecated: there is no planner; see ROADMAP item 1.
func (PlanStats) SavedSteps() int { return 0 }

// PlannerStats once aggregated planner effectiveness across batches.
//
// Deprecated: there is no planner; see ROADMAP item 1.
type PlannerStats struct {
	Batches int
	PlanStats
}

// EnableBatchPlanner has no effect.
//
// Deprecated: there is no planner; see ROADMAP item 1.
func (s *System) EnableBatchPlanner(workers int) {}

// PlannerStats reports no planner.
//
// Deprecated: there is no planner; see ROADMAP item 1.
func (s *System) PlannerStats() (PlannerStats, bool) { return PlannerStats{}, false }
