package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	pathcost "repro"
	"repro/internal/gps"
	"repro/internal/traffic"
	"repro/internal/trajgen"
	"repro/internal/wal"
)

var (
	ingOnce sync.Once
	ingSys  *pathcost.System
	ingRaw  []*gps.Trajectory
	ingErr  error
)

// ingestSystem trains one shared system plus a pool of raw GPS traces
// over the same network, for the ingest tests.
func ingestSystem(t testing.TB) (*pathcost.System, []*gps.Trajectory) {
	t.Helper()
	ingOnce.Do(func() {
		params := pathcost.DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		ingSys, ingErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: "test", Trips: 2000, Seed: 23, Params: params,
		})
		if ingErr != nil {
			return
		}
		// Fresh traces over the served graph, in raw GPS form, as a
		// vehicle fleet would stream them in.
		res := trajgen.New(ingSys.Graph, traffic.NewModel(traffic.Config{}), trajgen.Config{
			Seed: 41, NumTrips: 30, EmitGPS: true,
		}).Generate()
		ingRaw = res.Raw
		if len(ingRaw) == 0 {
			ingErr = fmt.Errorf("trajgen emitted no raw traces")
		}
	})
	if ingErr != nil {
		t.Fatal(ingErr)
	}
	return ingSys, ingRaw
}

// ingestBody serializes raw traces into the /v1/ingest JSON shape.
func ingestBody(t testing.TB, raw []*gps.Trajectory) []byte {
	t.Helper()
	var req ingestRequest
	for _, tr := range raw {
		tj := ingestTrajJSON{ID: tr.ID}
		for _, rec := range tr.Records {
			tj.Points = append(tj.Points, ingestPointJSON{
				Lat: rec.Pt.Lat, Lon: rec.Pt.Lon, T: rec.Time,
			})
		}
		req.Trajectories = append(req.Trajectories, tj)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postIngest(srv *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func TestIngestEndpointStagesAndPublishes(t *testing.T) {
	sys, raw := ingestSystem(t)
	srv := New(sys, Config{EnableIngest: true, IngestWorkers: 2})
	startSeq := sys.EpochStats().Seq

	rec := postIngest(srv, ingestBody(t, raw))
	if rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Received != len(raw) || resp.Staged == 0 {
		t.Fatalf("ingest response %+v: want Received = %d, Staged > 0", resp, len(raw))
	}
	if resp.Epoch != startSeq {
		t.Fatalf("ingest alone must not publish: epoch %d, want %d", resp.Epoch, startSeq)
	}
	if resp.StagedPending < resp.Staged {
		t.Fatalf("StagedPending %d < Staged %d", resp.StagedPending, resp.Staged)
	}

	// Publishing folds the staged deltas into a new epoch, visible in
	// /v1/stats along with the ingest counters.
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	sreq := httptest.NewRequest("GET", "/v1/stats", nil)
	srec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(srec, sreq)
	var stats statsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch == nil || stats.Epoch.Seq != startSeq+1 {
		t.Fatalf("stats epoch block %+v, want seq %d", stats.Epoch, startSeq+1)
	}
	if stats.Epoch.LastTrajs != resp.Staged {
		t.Fatalf("publish folded %d trajs, staged %d", stats.Epoch.LastTrajs, resp.Staged)
	}
	if stats.Ingest == nil || stats.Ingest.Staged != int64(resp.Staged) {
		t.Fatalf("stats ingest block %+v disagrees with response %+v", stats.Ingest, resp)
	}

	// The server still answers queries on the new epoch.
	ids, depart := densePath(t, sys)
	body, _ := json.Marshal(distributionRequest{Path: ids, Depart: depart})
	qreq := httptest.NewRequest("POST", "/v1/distribution", bytes.NewReader(body))
	qrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(qrec, qreq)
	if qrec.Code != 200 {
		t.Fatalf("post-publish query status %d: %s", qrec.Code, qrec.Body.String())
	}
}

// TestWALCheckpointFailureVisible: a daemon whose checkpoint hook
// fails keeps publishing epochs and keeps its WAL untruncated — and
// says so in /v1/stats' wal block and on /metrics, instead of growing
// the log silently.
func TestWALCheckpointFailureVisible(t *testing.T) {
	_, raw := ingestSystem(t)
	params := pathcost.DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	// A system of its own over the same network: it gets a WAL attached.
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test", Trips: 2000, Seed: 23, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sys.AttachWAL(l)
	sys.SetWALCheckpoint(func() error { return errors.New("checkpoint file unwritable (injected)") })
	srv := New(sys, Config{EnableIngest: true, IngestWorkers: 2})

	if rec := postIngest(srv, ingestBody(t, raw)); rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatalf("publish must survive a failed checkpoint: %v", err)
	}

	srec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(srec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch == nil || stats.Epoch.Seq != 2 {
		t.Fatalf("stats epoch block %+v, want the published seq 2", stats.Epoch)
	}
	if w := stats.WAL; w == nil || w.CheckpointErrors != 1 || w.TruncateErrors != 0 || w.Checkpoint != 0 || w.LastSeq == 0 {
		t.Fatalf("stats wal block %+v, want one checkpoint error and an untruncated log", stats.WAL)
	}

	mrec := httptest.NewRecorder()
	srv.Metrics().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"pathcost_wal_checkpoint_errors_total 1\n",
		"pathcost_wal_truncate_errors_total 0\n",
		"pathcost_wal_append_errors_total 0\n",
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, mrec.Body.String())
		}
	}
}

func TestIngestEndpointDisabled(t *testing.T) {
	sys, raw := ingestSystem(t)
	srv := New(sys, Config{}) // EnableIngest unset
	rec := postIngest(srv, ingestBody(t, raw[:1]))
	if rec.Code != 404 {
		t.Fatalf("disabled ingest answered %d, want 404", rec.Code)
	}
}

func TestIngestEndpointValidation(t *testing.T) {
	sys, raw := ingestSystem(t)
	srv := New(sys, Config{EnableIngest: true, MaxIngestBatch: 2})

	if rec := postIngest(srv, []byte(`{"trajectories":[]}`)); rec.Code != 400 {
		t.Fatalf("empty batch answered %d, want 400", rec.Code)
	}
	if rec := postIngest(srv, ingestBody(t, raw[:3])); rec.Code != 400 {
		t.Fatalf("over-cap batch answered %d, want 400", rec.Code)
	}
	if rec := postIngest(srv, []byte(`{"nope":1}`)); rec.Code != 400 {
		t.Fatalf("unknown field answered %d, want 400", rec.Code)
	}
	req := httptest.NewRequest("GET", "/v1/ingest", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("GET answered %d, want 405", rec.Code)
	}
}

// Garbage traces must be counted, not staged, and must never corrupt
// the served epoch.
func TestIngestEndpointGarbageTraces(t *testing.T) {
	sys, _ := ingestSystem(t)
	srv := New(sys, Config{EnableIngest: true})
	seq := sys.EpochStats().Seq
	body := []byte(`{"trajectories":[
		{"id":1,"points":[]},
		{"id":2,"points":[{"lat":0,"lon":0,"t":10}]},
		{"id":3,"points":[{"lat":91,"lon":0,"t":1},{"lat":91,"lon":0,"t":2}]},
		{"id":4,"points":[{"lat":57,"lon":10,"t":100},{"lat":57,"lon":10,"t":50}]}
	]}`)
	rec := postIngest(srv, body)
	if rec.Code != 200 {
		t.Fatalf("garbage batch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Staged != 0 || resp.MatchFailed != 4 {
		t.Fatalf("garbage batch staged %d, match-failed %d; want 0 and 4", resp.Staged, resp.MatchFailed)
	}
	if sys.EpochStats().Seq != seq {
		t.Fatalf("garbage batch moved the epoch: %d → %d", seq, sys.EpochStats().Seq)
	}
}

var (
	fuzzIngOnce sync.Once
	fuzzIngSrv  *Server
	fuzzIngSys  *pathcost.System
	fuzzIngErr  error
)

// FuzzIngest: arbitrary bodies — malformed JSON, out-of-domain
// coordinates, disordered timestamps — must never panic the server,
// never corrupt or advance the served epoch (ingest only stages;
// publishing is the daemon's job), and must keep the query path
// serving. Responses follow the documented status contract with JSON
// bodies.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(`{"trajectories":[{"id":1,"points":[{"lat":57,"lon":10,"t":1},{"lat":57.001,"lon":10.001,"t":20}]}]}`))
	f.Add([]byte(`{"trajectories":[]}`))
	f.Add([]byte(`{"trajectories":[{"id":-1,"points":[{"lat":1e308,"lon":-1e308,"t":-1}]}]}`))
	f.Add([]byte(`{"trajectories":[{"id":1,"points":[{"lat":57,"lon":10,"t":100},{"lat":57,"lon":10,"t":50}]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"trajectories":null}`))
	f.Add([]byte(`{"trajectories":[{"id":1}]}`))
	f.Add([]byte(`[{"id":1}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzIngOnce.Do(func() {
			params := pathcost.DefaultParams()
			params.Beta = 20
			params.MaxRank = 4
			fuzzIngSys, fuzzIngErr = pathcost.Synthesize(pathcost.SynthesizeConfig{
				Preset: "test", Trips: 1500, Seed: 29, Params: params,
			})
			if fuzzIngErr != nil {
				return
			}
			fuzzIngSrv = New(fuzzIngSys, Config{EnableIngest: true, MaxIngestBatch: 64})
		})
		if fuzzIngErr != nil {
			t.Fatal(fuzzIngErr)
		}
		seq := fuzzIngSys.EpochStats().Seq
		rec := postIngest(fuzzIngSrv, body)
		switch rec.Code {
		case 200, 400, 422, 500:
		default:
			t.Fatalf("status %d outside the contract for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON body %q for request %q", rec.Body.Bytes(), body)
		}
		if got := fuzzIngSys.EpochStats().Seq; got != seq {
			t.Fatalf("ingest moved the epoch %d → %d for body %q", seq, got, body)
		}
	})
}
