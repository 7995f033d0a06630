package core

import (
	"errors"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// CheckTrajectory is the one admission rule of staging, WAL replay and
// validateBatch. validateBatch words its refusals as it did before the
// rule was shared, and keeps Validate's error wrapped.
func TestCheckTrajectoryAndBatchTexts(t *testing.T) {
	g := chainGraph(t, 3)
	params := DefaultParams()
	params.Domain = DomainEmissions
	h := &HybridGraph{G: g, Params: params}

	ok := &gps.Matched{ID: 1, Path: graph.Path{0, 1}, EdgeCosts: []float64{1, 2}, Emissions: []float64{3, 4}}
	broken := &gps.Matched{ID: 2, Path: graph.Path{0, 2}, EdgeCosts: []float64{1, 2}, Emissions: []float64{3, 4}}
	noEmissions := &gps.Matched{ID: 3, Path: graph.Path{0, 1}, EdgeCosts: []float64{1, 2}}
	if err := h.CheckTrajectory(ok); err != nil {
		t.Fatalf("valid trajectory refused: %v", err)
	}
	if err := h.validateBatch([]*gps.Matched{ok, ok}); err != nil {
		t.Fatalf("valid batch refused: %v", err)
	}
	invalid := broken.Validate(g)
	if invalid == nil {
		t.Fatal("fixture: the broken path passes Validate")
	}
	for _, c := range []struct {
		batch []*gps.Matched
		want  string
	}{
		{[]*gps.Matched{ok, nil}, "core: batch trajectory 1 is nil"},
		{[]*gps.Matched{broken}, "core: batch trajectory 0: " + invalid.Error()},
		{[]*gps.Matched{ok, ok, noEmissions}, "core: batch trajectory 2 has no emissions but the model's cost domain is emissions"},
	} {
		if h.CheckTrajectory(c.batch[len(c.batch)-1]) == nil {
			t.Fatalf("%q: CheckTrajectory admits the trajectory", c.want)
		}
		err := h.validateBatch(c.batch)
		if err == nil || err.Error() != c.want {
			t.Fatalf("validateBatch: %v, want %q", err, c.want)
		}
	}
	err := h.validateBatch([]*gps.Matched{broken})
	if inner := errors.Unwrap(errors.Unwrap(err)); inner == nil || inner.Error() != invalid.Error() {
		t.Fatalf("Validate's error is not wrapped: %v", err)
	}
}
