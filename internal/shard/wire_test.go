package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sync"
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

// recordingTransport passes every call through and keeps each
// /v1/batch leg's request body and answer.
type recordingTransport struct {
	mu   sync.Mutex
	legs []recordedLeg
}

type recordedLeg struct {
	request, answer []byte
	status          int
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/batch" {
		return resp, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	rt.mu.Lock()
	rt.legs = append(rt.legs, recordedLeg{request: body, answer: answer, status: resp.StatusCode})
	rt.mu.Unlock()
	return resp, nil
}

// TestRelayLegsTakeThePlainCodec records every shard leg of the 3-way
// equivalence workload. Each request body must be json.Marshal's bytes
// for the request it carries, and each answer to a relay leg (every
// entry of kind "state") must be taken by api.ParseBatchResponse, not
// by its encoding/json fallback, and decode to json.Unmarshal's
// struct. Answers stay correct either way: this is what notices the
// reflection-free path being silently skipped.
func TestRelayLegsTakeThePlainCodec(t *testing.T) {
	sys := testSystem(t)
	rt := &recordingTransport{}
	f := startFleet(t, 3, func(cfg *Config) { cfg.Transport = rt })
	for _, p := range queryPaths(t, sys, 30, 103) {
		for _, m := range []string{"OD", "HP", "LB"} {
			postRaw(t, f.coordTS.URL+"/v1/distribution",
				api.DistributionRequest{Path: edgeIDs(p), Depart: 8 * 3600, Method: m, Budget: 1800})
		}
	}
	relays := 0
	for _, leg := range rt.legs {
		var req api.BatchRequest
		if err := json.Unmarshal(leg.request, &req); err != nil {
			t.Fatalf("leg request %s: %v", leg.request, err)
		}
		if want, _ := json.Marshal(&req); !bytes.Equal(leg.request, want) {
			t.Errorf("leg request is not json.Marshal's bytes:\n%s\nwant\n%s", leg.request, want)
		}
		relay := leg.status == http.StatusOK
		for _, q := range req.Queries {
			relay = relay && q.Kind == "state"
		}
		if !relay {
			continue
		}
		relays++
		var want, got api.BatchResponse
		if err := json.Unmarshal(leg.answer, &want); err != nil {
			t.Fatalf("relay answer %s: %v", leg.answer, err)
		}
		if !api.ParseBatchResponse(leg.answer, &got) {
			t.Errorf("relay answer %s was left to encoding/json", leg.answer)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("relay answer %s: decoded %+v, json.Unmarshal %+v", leg.answer, got, want)
		}
	}
	if relays == 0 {
		t.Fatal("the workload made no relay leg: the check is vacuous")
	}
}
