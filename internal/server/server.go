package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/ingest"
)

// Config tunes a Server. The request limits are api's constants
// (api.MaxPathEdges, api.MaxBatch, api.MaxTopK), the same on both tiers.
type Config struct {
	// MaxInFlight caps concurrently evaluated queries. Requests
	// beyond the cap wait for a slot or for the client to give up.
	// Route and topk requests each hold a slot for their whole
	// evaluation; distribution requests are charged per underlying
	// computation, so query-cache hits are free.
	// Batch entries are charged individually under the same cap.
	// 0 means api.DefaultMaxInFlight.
	MaxInFlight int
	// EnableIngest turns on POST /v1/ingest: raw GPS batches are
	// map-matched and staged into the served system's epoch delta
	// buffer (published by the daemon's epoch loop or SIGHUP). When
	// false the endpoint answers 404.
	EnableIngest bool
	// IngestWorkers bounds the map-matching pool per ingest batch
	// (≤ 1 = sequential).
	IngestWorkers int
	// MaxIngestBatch caps the trajectories accepted in one /v1/ingest
	// request (0 = 1024).
	MaxIngestBatch int
	// MaxQueue, when > 0, sheds load: a query arriving while MaxQueue
	// or more requests are already waiting for an evaluation slot is
	// answered 429 with Retry-After instead of joining the queue.
	// Shedding at admission keeps queue depth — and thus worst-case
	// latency behind the MaxInFlight gate — bounded. 0 disables
	// shedding (requests queue until the client gives up).
	MaxQueue int
	// DefaultTimeout, when > 0, bounds every query request
	// (/v1/distribution, /v1/route, /v1/topk, /v1/batch)
	// with a server-imposed deadline: the evaluation context expires
	// after this long and the request answers 504. A client can
	// tighten (never widen) the bound per request with the
	// api.BudgetHeader header. 0 leaves requests unbounded, the
	// pre-deadline behavior.
	DefaultTimeout time.Duration
}

// Server serves one pathcost.System over HTTP. Create with New, mount
// via Handler. All methods are safe for concurrent use.
type Server struct {
	sys   *pathcost.System
	gate  *api.Gate // admission, deadlines and the wire, shared with the coordinator
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// pipeline, when ingestion is enabled, map-matches /v1/ingest
	// batches and stages them into the served system; nil otherwise.
	pipeline *ingest.Pipeline
}

// New builds a Server around sys.
func New(sys *pathcost.System, cfg Config) *Server {
	if cfg.MaxIngestBatch <= 0 {
		cfg.MaxIngestBatch = 1024
	}
	s := &Server{
		sys:   sys,
		gate:  api.NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.DefaultTimeout, "server overloaded, retry later"),
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if cfg.EnableIngest {
		// The pipeline's construction cannot fail here: graph and sink
		// are non-nil by construction of a System.
		p, err := ingest.New(sys.Graph, sys, ingest.Config{Workers: cfg.IngestWorkers})
		if err != nil {
			panic("server: building ingest pipeline: " + err.Error())
		}
		s.pipeline = p
	}
	s.mux.HandleFunc("/healthz", s.gate.Healthz)
	s.mux.HandleFunc("/v1/distribution", endpoint(s, (*Server).evalDistribution))
	s.mux.HandleFunc("/v1/route", endpoint(s, (*Server).evalRoute))
	s.mux.HandleFunc("/v1/topk", endpoint(s, (*Server).evalTopK))
	s.mux.HandleFunc("/v1/batch", s.gate.Batch(s.evalBatch))
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// endpoint mounts an evaluator on the chassis's query sequence,
// against the served system.
func endpoint[Req, Resp any](s *Server, eval func(*Server, context.Context, *pathcost.System, *Req) (Resp, int, string)) http.HandlerFunc {
	return api.Endpoint(s.gate, func(ctx context.Context, req *Req) (Resp, int, string) {
		return eval(s, ctx, s.sys, req)
	})
}

// Handler returns the HTTP handler tree (also usable with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// RunListener serves the handler on ln (owned and closed by the
// server) until ctx is cancelled, then drains in-flight requests for up
// to drain before forcing connections closed: drain == 0 closes
// immediately, drain < 0 means the 10-second default. It returns nil
// after a clean shutdown.
func (s *Server) RunListener(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return api.ServeListener(ctx, s.mux, ln, drain)
}

// --- JSON shapes -----------------------------------------------------
//
// The request/response shapes live in internal/api so the sharded
// coordinator emits byte-identical bodies; the aliases keep this file
// readable and the handler signatures unchanged.

type (
	errorResponse        = api.Error
	bucketJSON           = api.Bucket
	distributionRequest  = api.DistributionRequest
	distributionResponse = api.DistributionResponse
	routeRequest         = api.RouteRequest
	routeResponse        = api.RouteResponse
	topkRequest          = api.TopKRequest
	topkEntry            = api.TopKEntry
	topkResponse         = api.TopKResponse
	batchQuery           = api.BatchQuery
	batchRequest         = api.BatchRequest
	batchResult          = api.BatchResult
	batchResponse        = api.BatchResponse
	stateResult          = api.StateResult
)

// ingestPointJSON is one raw GPS fix.
type ingestPointJSON struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	T   float64 `json:"t"` // absolute seconds
}

// ingestTrajJSON is one raw GPS trace.
type ingestTrajJSON struct {
	ID     int64             `json:"id"`
	Points []ingestPointJSON `json:"points"`
}

// ingestRequest is a batch of raw traces for POST /v1/ingest.
type ingestRequest struct {
	Trajectories []ingestTrajJSON `json:"trajectories"`
}

// ingestResponse reports what happened to the batch: how map matching
// partitioned it, how staging partitioned the matches, and the delta
// backlog plus served epoch after staging. Staged trajectories enter
// the model at the next epoch publish, not immediately — epoch tells
// pollers when that happened.
type ingestResponse struct {
	Received      int    `json:"received"`
	Matched       int    `json:"matched"`
	MatchFailed   int    `json:"match_failed"`
	Staged        int    `json:"staged"`
	Rejected      int    `json:"rejected"`
	StagedPending int    `json:"staged_pending"`
	Epoch         uint64 `json:"epoch"`
}

type statsResponse struct {
	Vertices        int     `json:"vertices"`
	Edges           int     `json:"edges"`
	Variables       int     `json:"variables"`
	VariablesByRank []int   `json:"variables_by_rank"`
	Coverage        float64 `json:"coverage"`
	AlphaMinutes    int     `json:"alpha_minutes"`
	Beta            int     `json:"beta"`

	Cache  *cacheStatsJSON  `json:"cache,omitempty"`
	Memo   *cacheStatsJSON  `json:"memo,omitempty"`
	Ingest *ingestStatsJSON `json:"ingest,omitempty"`
	Epoch  *epochStatsJSON  `json:"epoch,omitempty"`
	WAL    *walStatsJSON    `json:"wal,omitempty"`

	UptimeS     float64 `json:"uptime_s"`
	Served      uint64  `json:"served"`
	Rejected    uint64  `json:"rejected"`
	Abandoned   uint64  `json:"abandoned"`
	Shed        uint64  `json:"shed"`
	MaxInFlight int     `json:"max_in_flight"`
	MaxQueue    int     `json:"max_queue,omitempty"`
}

type cacheStatsJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// ingestStatsJSON reports the streaming-ingestion pipeline's
// cumulative counters (present only when ingestion is enabled).
type ingestStatsJSON struct {
	Batches     int64 `json:"batches"`
	Received    int64 `json:"received"`
	Records     int64 `json:"records"`
	Matched     int64 `json:"matched"`
	MatchFailed int64 `json:"match_failed"`
	Staged      int64 `json:"staged"`
	Rejected    int64 `json:"rejected"`
}

// epochStatsJSON reports the served system's epoch lifecycle: the
// current epoch, the staged-delta backlog, and what the most recent
// incremental publish did.
type epochStatsJSON struct {
	Seq             uint64  `json:"seq"`
	Publishes       uint64  `json:"publishes"`
	StagedPending   int     `json:"staged_pending"`
	StagedTotal     uint64  `json:"staged_total"`
	DecayHalflifeS  float64 `json:"decay_halflife_s"`
	LastTrajs       int     `json:"last_trajs"`
	LastTouchedVars int     `json:"last_touched_vars"`
	LastRebuiltVars int     `json:"last_rebuilt_vars"`
	LastNewVars     int     `json:"last_new_vars"`
	LastBuildMS     int64   `json:"last_build_ms"`
	LastDecayFactor float64 `json:"last_decay_factor"`
}

// walStatsJSON reports the attached ingest write-ahead log (present
// only when the daemon runs with -wal): durability frontier, how much
// of it a model checkpoint has retired, and the on-disk footprint.
// append_errors counts StageTrajectories batches rejected because the
// log could not persist them; checkpoint_errors and truncate_errors
// count publishes after which the log could not be shortened (the
// epoch is served either way — a counter that keeps moving is a log
// that keeps growing).
type walStatsJSON struct {
	LastSeq      uint64 `json:"last_seq"`
	Checkpoint   uint64 `json:"checkpoint"`
	Segments     int    `json:"segments"`
	Bytes        int64  `json:"bytes"`
	Appends      uint64 `json:"appends"`
	Truncations  uint64 `json:"truncations"`
	Discarded    int    `json:"discarded"`
	AppendErrors uint64 `json:"append_errors"`

	CheckpointErrors uint64 `json:"checkpoint_errors"`
	TruncateErrors   uint64 `json:"truncate_errors"`
}

// evalBatch answers N queries in one request, in order, each through
// the evaluator the same single request uses and charged like it: one
// invalid entry fails that entry, not the batch, and per-entry status
// codes carry what each query would have received standalone. Each
// entry runs against the system's current epoch, so entries after an
// epoch publish see the new one.
// Overlapping entries share their prefixes through the convolution
// memo, not through the batch.
func (s *Server) evalBatch(ctx context.Context, queries []batchQuery) ([]batchResult, int, string) {
	results := make([]batchResult, len(queries))
	for i := range queries {
		results[i] = s.evalBatchEntry(ctx, s.sys, &queries[i])
	}
	return results, http.StatusOK, ""
}

// evalBatchEntry dispatches one batch entry by kind. A panicking
// evaluation is that entry's 500 and nothing more: the eval helpers
// release their MaxInFlight slot by defer, and the panic stops here, so
// the entries after it and the batch envelope are unaffected.
func (s *Server) evalBatchEntry(ctx context.Context, sys *pathcost.System, q *batchQuery) (out batchResult) {
	kind := strings.ToLower(strings.TrimSpace(q.Kind))
	if kind == "" {
		kind = "distribution"
	}
	out = batchResult{Kind: kind}
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: panic evaluating batch entry of kind %q: %v\n%s", kind, r, debug.Stack())
			out = batchResult{Kind: kind, Status: http.StatusInternalServerError, Error: "internal error during computation"}
		}
	}()
	switch kind {
	case "distribution":
		resp, status, msg := s.evalDistribution(ctx, sys, &distributionRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
		})
		out.Distribution, out.Status, out.Error = resp, status, msg
	case "route":
		resp, status, msg := s.evalRoute(ctx, sys, &routeRequest{
			Source: q.Source, Dest: q.Dest, Depart: q.Depart, Budget: q.Budget, Method: q.Method,
		})
		out.Route, out.Status, out.Error = resp, status, msg
	case "topk":
		resp, status, msg := s.evalTopK(ctx, sys, &topkRequest{
			RouteRequest: routeRequest{
				Source: q.Source, Dest: q.Dest, Depart: q.Depart, Budget: q.Budget, Method: q.Method,
			},
			K: q.K,
		})
		out.TopK, out.Status, out.Error = resp, status, msg
	case "state":
		resp, status, msg := s.evalState(ctx, sys, q)
		out.State, out.Status, out.Error = resp, status, msg
	default:
		out.Status = http.StatusBadRequest
		out.Error = fmt.Sprintf("unknown kind %q (want distribution, route, topk or state)", q.Kind)
	}
	return out
}

// --- query evaluation (shared by single-query handlers and batch) ----

// distributionJSON shapes one evaluated distribution result. The
// payload itself is assembled in internal/api, where the sharded
// coordinator builds its composed answers too.
func distributionJSON(sys *pathcost.System, m pathcost.Method, depart, budget float64, res *pathcost.QueryResult) *distributionResponse {
	return api.DistributionPayload(string(m), sys.Params.IntervalOf(depart), res.Dist,
		budget, res.Decomp.Cardinality(), res.Decomp.MaxRank(), res.Timing.Total().Microseconds())
}

// evalDistribution validates and answers one distribution query.
// status 0 means the caller's client disconnected and nothing should
// be written; any other non-200 status carries msg as the error body.
func (s *Server) evalDistribution(ctx context.Context, sys *pathcost.System, req *distributionRequest) (*distributionResponse, int, string) {
	m, p, err := api.CheckDistribution(sys.Graph, req)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	// The in-flight bound is charged per underlying computation, not
	// per request: a query-cache hit bypasses the semaphore, and a miss
	// holds one slot for its computation. The acquire refuses only when
	// this request's context has ended.
	res, err := sys.PathDistributionGated(ctx, p, req.Depart, m,
		func() bool { return s.gate.Acquire(ctx) }, s.gate.Release)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	return distributionJSON(sys, m, req.Depart, req.Budget, res), http.StatusOK, ""
}

// evalRoute validates and answers one budget-routing query; the
// status contract matches evalDistribution.
func (s *Server) evalRoute(ctx context.Context, sys *pathcost.System, req *routeRequest) (*routeResponse, int, string) {
	m, err := api.CheckRoute(sys.Graph, req)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if !s.gate.Acquire(ctx) {
		status, msg := s.gate.Expired(ctx)
		return nil, status, msg
	}
	defer s.gate.Release() // deferred: a panicking evaluation must not leak the slot
	res, err := sys.RouteCtx(ctx, pathcost.VertexID(req.Source), pathcost.VertexID(req.Dest),
		req.Depart, req.Budget, m)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	return &routeResponse{
		Path:     api.EdgeIDs(res.Path),
		Prob:     res.Prob,
		MeanS:    res.Dist.Mean(),
		Explored: res.Explored,
		Pruned:   res.Pruned,
		EvalUS:   res.Elapsed.Microseconds(),
	}, http.StatusOK, ""
}

// evalTopK validates and answers one top-k query; the status contract
// matches evalDistribution.
func (s *Server) evalTopK(ctx context.Context, sys *pathcost.System, req *topkRequest) (*topkResponse, int, string) {
	m, err := api.CheckRoute(sys.Graph, &req.RouteRequest)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if req.K < 1 || req.K > api.MaxTopK {
		return nil, http.StatusBadRequest,
			fmt.Sprintf("k = %d out of range [1, %d]", req.K, api.MaxTopK)
	}
	if !s.gate.Acquire(ctx) {
		status, msg := s.gate.Expired(ctx)
		return nil, status, msg
	}
	defer s.gate.Release() // deferred: a panicking evaluation must not leak the slot
	res, err := sys.TopKRoutesCtx(ctx, pathcost.VertexID(req.Source), pathcost.VertexID(req.Dest),
		req.Depart, req.Budget, req.K, m)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	out := &topkResponse{Routes: make([]topkEntry, 0, len(res))}
	for _, r := range res {
		out.Routes = append(out.Routes, topkEntry{
			Path: api.EdgeIDs(r.Path), Prob: r.Prob, MeanS: r.Dist.Mean(),
		})
	}
	return out, http.StatusOK, ""
}

// evalState validates and answers one segment of a partitioned query,
// a batch entry of kind "state", evaluated against this shard's model
// slice: the cross-shard composition protocol's one door. A first
// segment omits State and sets UILo = UIHi = Depart; a continuation
// carries the previous segment's accumulator-only state and interval.
// The status contract matches evalDistribution. The relayed state is
// untrusted wire data: a decode failure is the caller's 400, never a
// panic. Segment evaluation is CPU-bound like any query, so it is
// charged one MaxInFlight slot. Both states die here: the decoded one
// after the evaluation, the answered one once encoded.
func (s *Server) evalState(ctx context.Context, sys *pathcost.System, req *batchQuery) (*stateResult, int, string) {
	m, err := api.ParseMethod(req.Method)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if m == pathcost.RD {
		return nil, http.StatusBadRequest,
			"method RD draws one random decomposition over the whole query; it cannot be evaluated segment by segment"
	}
	if err := api.CheckDepart(req.Depart); err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if req.UIHi < req.UILo {
		return nil, http.StatusBadRequest,
			fmt.Sprintf("inverted departure interval [%g, %g]", req.UILo, req.UIHi)
	}
	p, err := api.ParsePath(sys.Graph, req.Path, api.MaxPathEdges)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	var st *pathcost.ChainState
	if len(req.State) != 0 {
		st, err = pathcost.DecodeChainState(req.State, len(p))
		if err != nil {
			return nil, http.StatusBadRequest, err.Error()
		}
	}
	if !s.gate.Acquire(ctx) {
		status, msg := s.gate.Expired(ctx)
		return nil, status, msg
	}
	res, err := func() (*pathcost.SegmentResult, error) {
		defer s.gate.Release() // deferred: a panicking evaluation must not leak the slot
		return sys.EvaluateSegment(pathcost.SegmentInput{
			Path:   p,
			Depart: req.Depart,
			UI:     pathcost.TimeInterval{Lo: req.UILo, Hi: req.UIHi},
			State:  st,
			Opt:    pathcost.QueryOptions{Method: m},
			Ctx:    ctx,
		})
	}()
	// The relayed state's last reader was the evaluation; a nil one
	// (a first segment) ignores the call.
	st.Release()
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	enc, err := res.State.Encode()
	res.State.Release() // a memo-backed first segment's state ignores it
	if err != nil {
		return nil, http.StatusInternalServerError, "internal error encoding partial state"
	}
	return &stateResult{
		State:   enc,
		UILo:    res.UI.Lo,
		UIHi:    res.UI.Hi,
		Factors: res.Factors,
		MaxRank: res.MaxRank,
	}, http.StatusOK, ""
}

// handleIngest accepts a batch of raw GPS traces, map-matches it on
// the pipeline's worker pool (one MaxInFlight slot for the whole
// batch — matching is CPU-bound like query evaluation) and stages the
// survivors into the served system's delta buffer. The model is not
// updated here: staged deltas fold in at the next epoch publish.
// Malformed traces are counted and dropped, never failing the batch.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	p := s.pipeline
	if p == nil {
		s.gate.Error(w, http.StatusNotFound, "ingestion is disabled on this server")
		return
	}
	var req ingestRequest
	// Raw GPS batches are bulkier than queries: a trace is hundreds of
	// fixes, so the body cap is 16 MiB instead of api.MaxQueryBody's 1 MiB.
	if !s.gate.Read(w, r, &req, 16<<20) {
		return
	}
	if len(req.Trajectories) == 0 {
		s.gate.Error(w, http.StatusBadRequest, "batch must contain at least one trajectory")
		return
	}
	if len(req.Trajectories) > s.cfg.MaxIngestBatch {
		s.gate.Error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d trajectories, cap is %d", len(req.Trajectories), s.cfg.MaxIngestBatch))
		return
	}
	raw := make([]*gps.Trajectory, len(req.Trajectories))
	for i, tj := range req.Trajectories {
		tr := &gps.Trajectory{ID: tj.ID, Records: make([]gps.Record, len(tj.Points))}
		for j, pt := range tj.Points {
			tr.Records[j] = gps.Record{Pt: geo.Point{Lat: pt.Lat, Lon: pt.Lon}, Time: pt.T}
		}
		raw[i] = tr
	}
	ctx := r.Context()
	if !s.gate.Acquire(ctx) {
		return
	}
	st := func() ingest.BatchStats {
		defer s.gate.Release() // deferred: a panicking match must not leak the slot
		return p.IngestRaw(raw)
	}()
	est := s.sys.EpochStats()
	s.gate.Write(w, http.StatusOK, ingestResponse{
		Received:      st.Received,
		Matched:       st.Matched,
		MatchFailed:   st.MatchFailed,
		Staged:        st.Staged,
		Rejected:      st.Rejected,
		StagedPending: est.StagedPending,
		Epoch:         est.Seq,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.gate.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	sys := s.sys
	st := sys.Stats()
	resp := statsResponse{
		Vertices:        sys.Graph.NumVertices(),
		Edges:           sys.Graph.NumEdges(),
		Variables:       st.TotalVariables(),
		VariablesByRank: st.VariablesByRank,
		Coverage:        st.Coverage(),
		AlphaMinutes:    sys.Params.AlphaMinutes,
		Beta:            sys.Params.Beta,
		UptimeS:         time.Since(s.start).Seconds(),
		Served:          s.gate.Served.Load(),
		Rejected:        s.gate.Rejected.Load(),
		Abandoned:       s.gate.Abandoned.Load(),
		Shed:            s.gate.Shed.Load(),
		MaxInFlight:     s.gate.MaxInFlight(),
		MaxQueue:        s.cfg.MaxQueue,
	}
	if cst, ok := sys.QueryCacheStats(); ok {
		resp.Cache = &cacheStatsJSON{
			Hits: cst.Hits, Misses: cst.Misses, Evictions: cst.Evictions,
			Entries: cst.Entries, Capacity: cst.Capacity, HitRate: cst.HitRate(),
		}
	}
	if mst, ok := sys.ConvMemoStats(); ok {
		resp.Memo = &cacheStatsJSON{
			Hits: mst.Hits, Misses: mst.Misses, Evictions: mst.Evictions,
			Entries: mst.Entries, Capacity: mst.Capacity, HitRate: mst.HitRate(),
		}
	}
	// The ingest and epoch blocks describe the streaming-ingestion
	// lifecycle; on a query-only server (-ingest off) that machinery is
	// deliberately dark, so the blocks are omitted just as the
	// /v1/ingest endpoint is — a read-only replica should not advertise
	// an update pipeline it refuses to feed.
	if s.cfg.EnableIngest {
		if p := s.pipeline; p != nil {
			ist := p.Stats()
			resp.Ingest = &ingestStatsJSON{
				Batches: ist.Batches, Received: ist.Received, Records: ist.Records,
				Matched: ist.Matched, MatchFailed: ist.MatchFailed,
				Staged: ist.Staged, Rejected: ist.Rejected,
			}
		}
		est := sys.EpochStats()
		if wst, werrs, ok := sys.WALStats(); ok {
			resp.WAL = &walStatsJSON{
				LastSeq: wst.LastSeq, Checkpoint: wst.Checkpoint,
				Segments: wst.Segments, Bytes: wst.Bytes,
				Appends: wst.Appends, Truncations: wst.Truncations,
				Discarded: wst.Discarded, AppendErrors: werrs.Append,
				CheckpointErrors: werrs.Checkpoint, TruncateErrors: werrs.Truncate,
			}
		}
		resp.Epoch = &epochStatsJSON{
			Seq:             est.Seq,
			Publishes:       est.Publishes,
			StagedPending:   est.StagedPending,
			StagedTotal:     est.StagedTotal,
			DecayHalflifeS:  est.DecayHalflifeSec,
			LastTrajs:       est.LastTrajs,
			LastTouchedVars: est.LastTouchedVars,
			LastRebuiltVars: est.LastRebuiltVars,
			LastNewVars:     est.LastNewVars,
			LastBuildMS:     est.LastBuildMS,
			LastDecayFactor: est.LastDecayFactor,
		}
	}
	s.gate.WriteUncounted(w, http.StatusOK, resp)
}

// queryErrorStatus maps an evaluation failure to the right status: a
// context error against an expired server deadline is a 504 (the
// client is still listening and deserves a definitive answer), while
// the same error from a vanished client writes nothing; a gate
// rejection is this request's own acquire refusing on its ended
// context, mapped the same way; anything else is a
// valid-but-unanswerable query (422, e.g. sparse coverage or an
// unreachable destination).
func (s *Server) queryErrorStatus(ctx context.Context, err error) (int, string) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status, msg := s.gate.Expired(ctx)
		if status == 0 {
			// The client hung up mid-evaluation; nobody is listening.
			s.gate.Abandoned.Add(1)
		}
		return status, msg
	case errors.Is(err, pathcost.ErrGateRejected):
		// Acquire already counted a hang-up as abandoned.
		return s.gate.Expired(ctx)
	default:
		return http.StatusUnprocessableEntity, err.Error()
	}
}
