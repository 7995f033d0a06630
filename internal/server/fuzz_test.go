package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	pathcost "repro"
)

// Native fuzz targets for the HTTP handlers: arbitrary bodies must
// never panic the server and must only ever produce the documented
// status contract — 200 for answered queries, 400 for malformed or
// invalid requests, 422 for valid-but-unanswerable queries, 500 for
// internal evaluation faults. (503 needs a dead client context and
// cannot occur here; 405 needs a non-POST method and the targets only
// POST.) Every response body must be valid JSON.
//
// Seed corpus lives in testdata/fuzz/; CI runs a short fuzzing pass
// (-fuzz=FuzzServer... -fuzztime=10s) on every push, and any crasher
// it finds is minimized into that corpus automatically.

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

// fuzzServer builds one small served system shared by all fuzz
// executions (training per-execution would drown the fuzzer).
func fuzzServer(t testing.TB) *Server {
	t.Helper()
	fuzzOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		var sys *pathcost.System
		sys, fuzzErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 2000, Seed: 17, Params: params,
		})
		if fuzzErr != nil {
			return
		}
		sys.EnableQueryCache(256)
		sys.EnableConvMemo(512)
		fuzzSrv = New(sys, Config{MaxInFlight: 8})
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzSrv
}

// postFuzzBody drives one handler invocation and enforces the
// contract shared by both targets.
func postFuzzBody(t *testing.T, path string, body []byte) {
	t.Helper()
	srv := fuzzServer(t)
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req) // a panic here fails the fuzz run
	switch rec.Code {
	case 200, 400, 422, 500:
	default:
		t.Fatalf("status %d outside the documented contract (200/400/422/500) for body %q",
			rec.Code, body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d carried a non-JSON body %q for request %q",
			rec.Code, rec.Body.Bytes(), body)
	}
}

func FuzzServerDistribution(f *testing.F) {
	f.Add([]byte(`{"path":[0,1],"depart":28800}`))
	f.Add([]byte(`{"path":[0],"depart":0,"method":"LB","budget":600}`))
	f.Add([]byte(`{"path":[],"depart":-1}`))
	f.Add([]byte(`{"path":[999999999],"depart":1e308,"method":"??"}`))
	f.Add([]byte(`{"path":[0,1,"x"]`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"path":[0,5,0],"depart":28800,"unknown_field":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzzBody(t, "/v1/distribution", body)
	})
}

func FuzzServerBatch(f *testing.F) {
	f.Add([]byte(`{"queries":[{"kind":"distribution","path":[0,1],"depart":28800}]}`))
	f.Add([]byte(`{"queries":[{"kind":"route","source":0,"dest":5,"depart":28800,"budget":900},` +
		`{"kind":"topk","source":0,"dest":5,"depart":28800,"budget":900,"k":3}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{"queries":[{"kind":"nope"}]}`))
	f.Add([]byte(`{"queries":null}`))
	f.Add([]byte(`{"queries":[{"path":[-1],"depart":-5}],"extra":1}`))
	f.Add([]byte(`[1,2,3]`))
	// Overlapping-path batches drive the memo's prefix sharing across
	// entries: shared trunks, duplicate entries, and an invalid entry
	// whose prefixes belong to the valid ones.
	f.Add([]byte(`{"queries":[{"path":[0,1,2,3],"depart":28800},` +
		`{"path":[0,1,2],"depart":28800},{"path":[0,1],"depart":28800},` +
		`{"path":[0,1,2,3],"depart":28800}]}`))
	f.Add([]byte(`{"queries":[{"path":[0,1,2],"depart":28800},` +
		`{"path":[0,1,2,0],"depart":28800},{"path":[0,1],"depart":28800,"method":"HP"}]}`))
	f.Add([]byte(`{"queries":[{"path":[0,1],"depart":28800,"method":"RD"},` +
		`{"path":[0,1],"depart":28800,"method":"LB"},` +
		`{"kind":"route","source":0,"dest":5,"depart":28800,"budget":900}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzzBody(t, "/v1/batch", body)
	})
}
