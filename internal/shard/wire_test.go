package shard

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/api"
)

// evalUS matches the one field of an answer that is a wall-clock
// reading and so differs between any two evaluations.
var evalUS = regexp.MustCompile(`"eval_us":\d+`)

// TestCoordinatorRawBytesMatchUnion is the golden test of the shared
// writer: the coordinator and a single process serving the union model
// put the same bytes on the wire — not merely JSON that decodes alike —
// for composed, proxied and refused distributions and for a batch
// mixing them, eval_us aside.
func TestCoordinatorRawBytesMatchUnion(t *testing.T) {
	sys := testSystem(t)
	f := startFleet(t, 3, nil)
	cross, inside := edgeIDs(crossRegionPath(t, f, sys)), edgeIDs(inRegionPath(t, f, sys))
	post := func(path string, body any) {
		t.Helper()
		cCode, cBody := postRaw(t, f.coordTS.URL+path, body)
		uCode, uBody := postRaw(t, f.unionTS.URL+path, body)
		cBody, uBody = evalUS.ReplaceAll(cBody, []byte(`"eval_us":0`)), evalUS.ReplaceAll(uBody, []byte(`"eval_us":0`))
		if cCode != uCode || !bytes.Equal(cBody, uBody) {
			t.Errorf("%s %+v:\ncoordinator %d %s\nunion       %d %s", path, body, cCode, cBody, uCode, uBody)
		}
	}
	for _, req := range []api.DistributionRequest{
		{Path: cross, Depart: 8 * 3600, Budget: 1800},
		{Path: cross, Depart: 17 * 3600, Method: "LB"},
		{Path: inside, Depart: 8 * 3600, Method: "HP", Budget: 0.5},
		{Path: inside, Depart: -1},                    // 400 with a non-ASCII message
		{Path: inside, Depart: 0, Method: `<"&nope>`}, // 400 with every escaped byte
		{Path: []int64{1 << 40}, Depart: 0},
	} {
		post("/v1/distribution", req)
	}
	post("/v1/batch", api.BatchRequest{Queries: []api.BatchQuery{
		{Path: cross, Depart: 8 * 3600, Budget: 1800},
		{Kind: "distribution", Path: inside, Depart: 8 * 3600, Method: "HP"},
		{Path: inside, Depart: -1},
		{Kind: "Distribution ", Path: []int64{}, Depart: 0},
	}})
	post("/v1/batch", api.BatchRequest{})
}

// TestCoordinatorUnencodableAnswerIs500 is the coordinator's half of
// the regression test for the empty-body 200: an answer the encoder
// refuses is a counted 500 with the usual envelope.
func TestCoordinatorUnencodableAnswerIs500(t *testing.T) {
	f := startFleet(t, 2, nil)
	rec := httptest.NewRecorder()
	f.coord.gate.Answer(rec, http.StatusOK, "",
		&api.DistributionResponse{Method: "OD", MeanS: math.NaN()})
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != "{\"error\":\"internal error during computation\"}\n" {
		t.Fatalf("answered %d %q, want the 500 envelope", rec.Code, rec.Body.String())
	}
	if s, r := f.coord.gate.Served.Load(), f.coord.gate.Rejected.Load(); s != 0 || r != 1 {
		t.Fatalf("counted served %d rejected %d, want 0 and 1", s, r)
	}
}
