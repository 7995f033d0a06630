package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gps"
	"repro/internal/graph"
)

// The publish reads, for each touched path, only the occurrences that
// arrive in an interval the batch touched. What it reads must be what
// the all-intervals grouping holds under those keys — same occurrences,
// same order — because the variable builders consume them in order.
func TestTouchedOccurrencesMatchGroupByInterval(t *testing.T) {
	g, data, params := forkFixture(t, 3)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	// A batch over several days and hours, so that paths are touched in
	// more than one interval, some of them intervals nothing arrived in
	// before.
	rnd := rand.New(rand.NewSource(24))
	var batch []*gps.Matched
	for i := 0; i < 40; i++ {
		hour := []float64{8, 8.1, 13, 23.9}[i%4]
		batch = append(batch, &gps.Matched{
			ID: int64(1000 + i), Path: graph.Path{0, 1, graph.EdgeID(2 + i%3)}[i%2:],
			Depart:    float64(i%5)*gps.SecondsPerDay + hour*3600 + rnd.Float64()*600,
			EdgeCosts: []float64{25 + rnd.Float64()*10, 30 + rnd.Float64()*12, 20 + rnd.Float64()*9}[i%2:],
		})
	}
	next := data.Extend(batch, 0)
	touched, _ := h.touchedFromBatch(batch)
	if len(touched) < 8 {
		t.Fatalf("only %d touched paths", len(touched))
	}
	pairs, multi := 0, 0
	for _, k := range sortedTouched(touched) {
		tp := touched[k]
		if len(tp.ivs) > 1 {
			multi++
		}
		got := touchedOccurrences(next, tp.path, h.arrivalIntervals(next, tp.path[0]), tp.ivs)
		want := h.groupByInterval(next, tp.path, next.OccurrencesOfPath(tp.path))
		for iv := range got {
			if !tp.ivs[iv] {
				t.Fatalf("path %v: collected interval %d, which the batch did not touch", tp.path, iv)
			}
		}
		for iv := range tp.ivs {
			pairs++
			if len(want[iv]) == 0 {
				t.Fatalf("path %v interval %d: touched but without occurrences", tp.path, iv)
			}
			if !reflect.DeepEqual(got[iv], want[iv]) {
				t.Fatalf("path %v interval %d:\n got %v\nwant %v", tp.path, iv, got[iv], want[iv])
			}
		}
	}
	if multi == 0 {
		t.Fatal("no path was touched in more than one interval")
	}
	t.Logf("%d touched paths, %d (path, interval) pairs, %d paths in several intervals", len(touched), pairs, multi)
}
