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
	"sync"
	"sync/atomic"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/ingest"
)

// DefaultMaxInFlight bounds concurrently evaluated queries when
// Config.MaxInFlight is 0. Query evaluation is CPU-bound, so a small
// multiple of typical core counts is plenty; excess requests queue.
const DefaultMaxInFlight = 32

// Config tunes a Server.
type Config struct {
	// MaxInFlight caps concurrently evaluated queries. Requests
	// beyond the cap wait for a slot or for the client to give up.
	// Route and topk requests each hold a slot for their whole
	// evaluation; distribution requests are charged per underlying
	// computation, so cache hits and singleflight followers are free.
	// Batch entries are charged individually under the same cap.
	// 0 means DefaultMaxInFlight.
	MaxInFlight int
	// MaxTopK caps the k accepted by /v1/topk (0 = 32).
	MaxTopK int
	// MaxPathEdges caps the path cardinality accepted by
	// /v1/distribution (0 = 256). Evaluation cost grows with path
	// length, so an uncapped path would let a few maximal requests
	// monopolize the MaxInFlight evaluation slots.
	MaxPathEdges int
	// MaxBatch caps the number of queries accepted in one /v1/batch
	// request (0 = 64).
	MaxBatch int
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
	// (/v1/distribution, /v1/route, /v1/topk, /v1/state, /v1/batch)
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
	sys   atomic.Pointer[pathcost.System]
	sem   chan struct{}
	cfg   Config
	mux   *http.ServeMux
	wire  api.Wire // request reading and answer writing, shared with the coordinator
	start time.Time

	// pipeline, when ingestion is enabled, map-matches /v1/ingest
	// batches and stages them into the served system. Rebuilt on Swap
	// so staged deltas always target the system being served (its
	// cumulative counters restart with the new system).
	pipeline atomic.Pointer[ingest.Pipeline]

	served    atomic.Uint64 // requests answered 2xx
	rejected  atomic.Uint64 // requests answered 4xx/5xx
	abandoned atomic.Uint64 // clients that disconnected while queued for a slot
	shed      atomic.Uint64 // requests answered 429 by the MaxQueue load shedder
	reloads   atomic.Uint64 // Swap calls
	queued    atomic.Int64  // requests currently waiting for an evaluation slot
}

// New builds a Server around sys.
func New(sys *pathcost.System, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxTopK <= 0 {
		cfg.MaxTopK = 32
	}
	if cfg.MaxPathEdges <= 0 {
		cfg.MaxPathEdges = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxIngestBatch <= 0 {
		cfg.MaxIngestBatch = 1024
	}
	s := &Server{
		sem:   make(chan struct{}, cfg.MaxInFlight),
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.wire = api.Wire{Served: &s.served, Rejected: &s.rejected}
	s.sys.Store(sys)
	if cfg.EnableIngest {
		s.rebuildPipeline(sys)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/distribution", s.handleDistribution)
	s.mux.HandleFunc("/v1/route", s.handleRoute)
	s.mux.HandleFunc("/v1/topk", s.handleTopK)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/state", s.handleState)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// rebuildPipeline points the ingest pipeline at sys; the pipeline's
// construction cannot fail here (graph and sink are non-nil by
// construction of a System).
func (s *Server) rebuildPipeline(sys *pathcost.System) {
	p, err := ingest.New(sys.Graph, sys, ingest.Config{Workers: s.cfg.IngestWorkers})
	if err != nil {
		panic("server: building ingest pipeline: " + err.Error())
	}
	s.pipeline.Store(p)
}

// Handler returns the HTTP handler tree (also usable with httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// System returns the currently served system.
func (s *Server) System() *pathcost.System { return s.sys.Load() }

// Swap atomically replaces the served system and returns the previous
// one — the hot-reload primitive behind pathcostd's SIGHUP handling.
// In-flight queries finish against the system they started with; new
// requests see next. The swapped-in system keeps its own query-cache
// configuration (a fresh System starts uncached; enable its cache
// before swapping it in).
func (s *Server) Swap(next *pathcost.System) *pathcost.System {
	s.reloads.Add(1)
	prev := s.sys.Swap(next)
	if s.cfg.EnableIngest {
		// Re-point ingestion at the new system; an ingest batch racing
		// the swap stages into the system it loaded, whose epoch
		// machinery remains valid even after it stops being served.
		s.rebuildPipeline(next)
	}
	return prev
}

// Run serves the handler on addr until ctx is cancelled, then drains
// in-flight requests for up to drain before forcing connections
// closed (graceful shutdown). drain == 0 skips draining and closes
// immediately; drain < 0 means the 10-second default. Run returns
// nil after a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.RunListener(ctx, ln, drain)
}

// RunListener is Run over an already-bound listener — the form the
// daemon's testable run loop uses so tests can bind port 0 and
// discover the address before requests fly. The listener is owned and
// closed by the server.
func (s *Server) RunListener(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return ServeListener(ctx, s.mux, ln, drain)
}

// ServeListener serves handler on ln until ctx is cancelled, then
// drains with the same contract as RunListener (drain == 0 closes
// immediately, drain < 0 means the 10-second default). Extracted so
// the sharded coordinator reuses the exact shutdown behavior for its
// own handler tree.
// Connection-hygiene bounds for every listener this package serves
// (query servers and the sharded coordinator alike). ReadHeaderTimeout
// caps how long a connection may dribble its request headers — the
// classic slow-loris hold — and IdleTimeout reclaims keep-alive
// connections that have gone quiet. Variables, not constants, so the
// regression test can shrink them to something observable.
var (
	ServeReadHeaderTimeout = 10 * time.Second
	ServeIdleTimeout       = 120 * time.Second
)

func ServeListener(ctx context.Context, handler http.Handler, ln net.Listener, drain time.Duration) error {
	if drain < 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: ServeReadHeaderTimeout,
		IdleTimeout:       ServeIdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		var err error
		if drain == 0 {
			err = srv.Close()
		} else {
			sctx, cancel := context.WithTimeout(context.Background(), drain)
			defer cancel()
			err = srv.Shutdown(sctx)
			if errors.Is(err, context.DeadlineExceeded) {
				// Drain window elapsed with requests still running:
				// force the remaining connections closed, as
				// promised. That is still an orderly stop.
				err = srv.Close()
			}
		}
		// Shutdown/Close make ListenAndServe return, so this cannot
		// block; surface a real serve failure (e.g. a bind error that
		// raced the signal) instead of swallowing it.
		if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return err
	}
}

// acquire takes a query-evaluation slot, giving up when the caller's
// context ends first. It reports whether the slot was obtained; the
// caller must release() exactly once when it was. Batch entries pass
// their request's context, so one disconnected batch client frees
// every slot its entries were waiting for.
func (s *Server) acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		// Already-dead client: don't let select's random choice burn
		// a slot on an evaluation nobody will receive.
		s.abandoned.Add(1)
		return false
	}
	select {
	case s.sem <- struct{}{}:
		// Free slot: never counts toward queue depth, so an idle
		// server cannot shed.
		return true
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		// Nothing will be written for this request; count it so
		// /v1/stats still shows traffic shed under saturation.
		s.abandoned.Add(1)
		return false
	}
}

func (s *Server) release() { <-s.sem }

// shedIfOverloaded implements Config.MaxQueue admission control: when
// the slot queue is already at its bound, answer 429 + Retry-After now
// rather than stacking another waiter behind the MaxInFlight gate.
// Checked at handler entry, before the body is even parsed — a shed
// request should cost close to nothing. Distinct from the 503 a gate
// rejection maps to: 429 means "healthy but full, back off", and the
// coordinator's hedging treats it as advisory, not as shard failure.
func (s *Server) shedIfOverloaded(w http.ResponseWriter) bool {
	if s.cfg.MaxQueue <= 0 || s.queued.Load() < int64(s.cfg.MaxQueue) {
		return false
	}
	s.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	s.wire.Error(w, http.StatusTooManyRequests, "server overloaded, retry later")
	return true
}

// timeoutOutcome maps an evaluation that died with its context to the
// right answer: a server-imposed (or header-requested) deadline is a
// real outcome the client is still waiting to hear — 504; a vanished
// client gets nothing (status 0).
func (s *Server) timeoutOutcome(ctx context.Context) (int, string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline exceeded"
	}
	return 0, ""
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
	stateRequest         = api.StateRequest
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

	Cache    *cacheStatsJSON    `json:"cache,omitempty"`
	Memo     *cacheStatsJSON    `json:"memo,omitempty"`
	Synopsis *synopsisStatsJSON `json:"synopsis,omitempty"`
	Planner  *plannerStatsJSON  `json:"planner,omitempty"`
	Ingest   *ingestStatsJSON   `json:"ingest,omitempty"`
	Epoch    *epochStatsJSON    `json:"epoch,omitempty"`
	WAL      *walStatsJSON      `json:"wal,omitempty"`

	UptimeS     float64 `json:"uptime_s"`
	Served      uint64  `json:"served"`
	Rejected    uint64  `json:"rejected"`
	Abandoned   uint64  `json:"abandoned"`
	Shed        uint64  `json:"shed"`
	Reloads     uint64  `json:"reloads"`
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

// synopsisStatsJSON reports the offline sub-path synopsis loaded with
// the model: entry count, serialized bytes, and probe effectiveness.
type synopsisStatsJSON struct {
	Entries int     `json:"entries"`
	Bytes   int     `json:"bytes"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// plannerStatsJSON reports the batch planner's accumulated
// effectiveness: of the independent_steps chain steps the planned
// batches would have cost evaluated one query at a time, only
// convolutions were executed and probe_hits were answered by the
// synopsis or memo; saved_steps is the remainder the prefix trie
// eliminated outright.
type plannerStatsJSON struct {
	Workers          int `json:"workers"`
	Batches          int `json:"batches"`
	Queries          int `json:"queries"`
	Planned          int `json:"planned"`
	Fallback         int `json:"fallback"`
	Nodes            int `json:"nodes"`
	SharedNodes      int `json:"shared_nodes"`
	Convolutions     int `json:"convolutions"`
	ProbeHits        int `json:"probe_hits"`
	IndependentSteps int `json:"independent_steps"`
	SavedSteps       int `json:"saved_steps"`
}

// ingestStatsJSON reports the streaming-ingestion pipeline's
// cumulative counters (present only when ingestion is enabled;
// counters restart when a model reload re-points the pipeline).
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
	Seq                    uint64  `json:"seq"`
	Publishes              uint64  `json:"publishes"`
	StagedPending          int     `json:"staged_pending"`
	StagedTotal            uint64  `json:"staged_total"`
	DecayHalflifeS         float64 `json:"decay_halflife_s"`
	LastTrajs              int     `json:"last_trajs"`
	LastTouchedVars        int     `json:"last_touched_vars"`
	LastRebuiltVars        int     `json:"last_rebuilt_vars"`
	LastNewVars            int     `json:"last_new_vars"`
	LastBuildMS            int64   `json:"last_build_ms"`
	LastDecayFactor        float64 `json:"last_decay_factor"`
	SynopsisCarried        int     `json:"synopsis_carried"`
	SynopsisRematerialized int     `json:"synopsis_rematerialized"`
	SynopsisDropped        int     `json:"synopsis_dropped"`
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

// --- validation helpers ----------------------------------------------
//
// Shared with the coordinator via internal/api so both tiers reject
// malformed requests with identical messages.

// parseMethod validates the method name; empty selects OD.
func parseMethod(name string) (pathcost.Method, error) { return api.ParseMethod(name) }

// parsePath validates the edge sequence against the served graph.
func parsePath(g *pathcost.Graph, ids []int64, maxEdges int) (pathcost.Path, error) {
	return api.ParsePath(g, ids, maxEdges)
}

func checkVertex(g *pathcost.Graph, name string, v int64) error {
	return api.CheckVertex(g, name, v)
}

func checkDepart(depart float64) error { return api.CheckDepart(depart) }

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.wire.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.wire.WriteUncounted(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDistribution(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req distributionRequest
	if !s.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := s.wire.Context(w, r, s.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	resp, status, msg := s.evalDistribution(ctx, s.System(), &req)
	s.writeOutcome(w, status, msg, resp)
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req routeRequest
	if !s.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := s.wire.Context(w, r, s.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	resp, status, msg := s.evalRoute(ctx, s.System(), &req)
	s.writeOutcome(w, status, msg, resp)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req topkRequest
	if !s.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := s.wire.Context(w, r, s.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	resp, status, msg := s.evalTopK(ctx, s.System(), &req)
	s.writeOutcome(w, status, msg, resp)
}

// handleState serves POST /v1/state: one segment of a partitioned
// query, evaluated against this shard's model slice. The endpoint is
// part of the cross-shard composition protocol — coordinators are the
// expected callers — but it is stateless and safe to expose alongside
// the query endpoints.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req stateRequest
	if !s.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := s.wire.Context(w, r, s.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	resp, status, msg := s.evalState(ctx, s.System(), &req)
	s.writeOutcome(w, status, msg, resp)
}

// handleBatch answers N queries in one request, against one system
// snapshot (a mid-batch Swap never splits a batch across models).
// When the served system has a batch planner (pathcostd
// -plan-workers), every distribution entry is planned as one unit:
// overlapping paths share each sub-path convolution outright, charged
// as one computation under the MaxInFlight gate. Remaining entries
// (route, topk — and all entries when no planner is enabled) evaluate
// concurrently, each charged individually under the same gate. One
// invalid entry fails that entry, not the batch: per-entry status
// codes carry what each query would have received standalone, planned
// or not.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req batchRequest
	if !s.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	if len(req.Queries) == 0 {
		s.wire.Error(w, http.StatusBadRequest, "batch must contain at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.wire.Error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d queries, cap is %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	sys := s.System()
	ctx, cancel, ok := s.wire.Context(w, r, s.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	results := make([]batchResult, len(req.Queries))
	var handled []bool
	if sys.Planner() != nil {
		handled = s.planBatchDistributions(ctx, sys, req.Queries, results)
	}
	pending, last := 0, 0
	for i := range req.Queries {
		if handled == nil || !handled[i] {
			pending++
			last = i
		}
	}
	if pending == 1 {
		// One entry left (every relay leg of the sharded tier is such a
		// batch): nothing to run beside it, so it runs here, on a stack
		// that is already grown, not on a fresh goroutine's.
		results[last] = s.evalBatchEntry(ctx, sys, &req.Queries[last])
	} else {
		var wg sync.WaitGroup
		for i := range req.Queries {
			if handled != nil && handled[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = s.evalBatchEntry(ctx, sys, &req.Queries[i])
			}(i)
		}
		wg.Wait()
	}
	if r.Context().Err() != nil {
		return // client gone; entries already accounted their shed work
	}
	// An expired server deadline is different from a vanished client:
	// the caller is still listening, and every entry the deadline
	// caught already carries its own 504.
	s.wire.Write(w, http.StatusOK, batchResponse{Results: results})
}

// planBatchDistributions answers every distribution-kind entry of a
// batch through the system's batch planner and marks them handled.
// Entries failing validation get their 400 here (and are handled too
// — validation needs no planning); valid ones are planned together so
// shared sub-paths are convolved once. A per-entry evaluation failure
// maps through queryErrorStatus exactly like a standalone request,
// and never poisons entries sharing its prefixes (the planner
// contains failures to the failing node's own subtree).
func (s *Server) planBatchDistributions(ctx context.Context, sys *pathcost.System, queries []batchQuery, results []batchResult) []bool {
	handled := make([]bool, len(queries))
	var idx []int // planned entry → queries index
	var plan []pathcost.PlanQuery
	var methods []pathcost.Method
	for i := range queries {
		q := &queries[i]
		kind := strings.ToLower(strings.TrimSpace(q.Kind))
		if kind != "" && kind != "distribution" {
			continue
		}
		handled[i] = true
		results[i] = batchResult{Kind: "distribution"}
		m, p, err := s.checkDistribution(sys, &distributionRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
		})
		if err != nil {
			results[i].Status, results[i].Error = http.StatusBadRequest, err.Error()
			continue
		}
		idx = append(idx, i)
		plan = append(plan, pathcost.PlanQuery{
			Path: p, Depart: q.Depart, Opt: pathcost.QueryOptions{Method: m},
		})
		methods = append(methods, m)
	}
	if len(plan) == 0 {
		return handled
	}
	// One gate slot covers the whole planned evaluation: the plan is
	// one CPU-bound computation, however many entries it answers.
	res, _ := sys.PlanDistributions(ctx, plan,
		func() bool { return s.acquire(ctx) }, s.release)
	for j, i := range idx {
		if err := res[j].Err; err != nil {
			results[i].Status, results[i].Error = s.queryErrorStatus(ctx, err)
			continue
		}
		results[i].Status = http.StatusOK
		results[i].Distribution = distributionJSON(sys, methods[j], queries[i].Depart, queries[i].Budget, res[j].Res)
	}
	return handled
}

// evalBatchEntry dispatches one batch entry by kind. A panicking
// evaluation is that entry's 500 and nothing more: the eval helpers
// release their MaxInFlight slot by defer, and the panic stops here —
// whether the entry runs on the handler's goroutine or on its own,
// where an escaped panic would end the process — so sibling entries
// and the batch envelope are unaffected.
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
		resp, status, msg := s.evalState(ctx, sys, &stateRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method,
			UILo: q.UILo, UIHi: q.UIHi, State: q.State,
		})
		out.State, out.Status, out.Error = resp, status, msg
	default:
		out.Status = http.StatusBadRequest
		out.Error = fmt.Sprintf("unknown kind %q (want distribution, route, topk or state)", q.Kind)
	}
	return out
}

// --- query evaluation (shared by single-query handlers and batch) ----

// checkDistribution validates one distribution request; a non-nil
// error means a 400 with the error's message.
func (s *Server) checkDistribution(sys *pathcost.System, req *distributionRequest) (pathcost.Method, pathcost.Path, error) {
	m, err := parseMethod(req.Method)
	if err != nil {
		return "", nil, err
	}
	if err := checkDepart(req.Depart); err != nil {
		return "", nil, err
	}
	if req.Budget < 0 {
		return "", nil,
			fmt.Errorf("budget %v must be ≥ 0 seconds (0 or omitted skips prob_within)", req.Budget)
	}
	p, err := parsePath(sys.Graph, req.Path, s.cfg.MaxPathEdges)
	if err != nil {
		return "", nil, err
	}
	return m, p, nil
}

// distributionJSON shapes one evaluated distribution result; shared
// by the single-query path and the planned batch path so both emit
// identical bodies. The payload itself is assembled in internal/api,
// where the sharded coordinator builds its composed answers too.
func distributionJSON(sys *pathcost.System, m pathcost.Method, depart, budget float64, res *pathcost.QueryResult) *distributionResponse {
	return api.DistributionPayload(string(m), sys.Params.IntervalOf(depart), res.Dist,
		budget, res.Decomp.Cardinality(), res.Decomp.MaxRank(), res.Timing.Total().Microseconds())
}

// evalDistribution validates and answers one distribution query.
// status 0 means the caller's client disconnected and nothing should
// be written; any other non-200 status carries msg as the error body.
func (s *Server) evalDistribution(ctx context.Context, sys *pathcost.System, req *distributionRequest) (*distributionResponse, int, string) {
	m, p, err := s.checkDistribution(sys, req)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	// The in-flight bound is charged per underlying computation, not
	// per request: cache hits and singleflight followers (requests
	// answered by a concurrent leader's work) bypass the semaphore,
	// so a hot-key stampede cannot starve unrelated queries. An
	// ErrGateRejected here is always this request's own — followers
	// who inherit a leader's rejection retry inside
	// PathDistributionGated until their own acquire decides. The
	// caller's context unparks this evaluation if its client
	// disconnects while waiting behind another request's computation.
	res, err := sys.PathDistributionGated(ctx, p, req.Depart, m,
		func() bool { return s.acquire(ctx) }, s.release)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	return distributionJSON(sys, m, req.Depart, req.Budget, res), http.StatusOK, ""
}

// evalRoute validates and answers one budget-routing query; the
// status contract matches evalDistribution.
func (s *Server) evalRoute(ctx context.Context, sys *pathcost.System, req *routeRequest) (*routeResponse, int, string) {
	m, err := checkRouteRequest(sys.Graph, req)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if !s.acquire(ctx) {
		status, msg := s.timeoutOutcome(ctx)
		return nil, status, msg
	}
	defer s.release() // deferred: a panicking evaluation must not leak the slot
	res, err := sys.RouteCtx(ctx, pathcost.VertexID(req.Source), pathcost.VertexID(req.Dest),
		req.Depart, req.Budget, m)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	return &routeResponse{
		Path:     edgeIDs(res.Path),
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
	m, err := checkRouteRequest(sys.Graph, &req.RouteRequest)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if req.K < 1 || req.K > s.cfg.MaxTopK {
		return nil, http.StatusBadRequest,
			fmt.Sprintf("k = %d out of range [1, %d]", req.K, s.cfg.MaxTopK)
	}
	if !s.acquire(ctx) {
		status, msg := s.timeoutOutcome(ctx)
		return nil, status, msg
	}
	defer s.release() // deferred: a panicking evaluation must not leak the slot
	res, err := sys.TopKRoutesCtx(ctx, pathcost.VertexID(req.Source), pathcost.VertexID(req.Dest),
		req.Depart, req.Budget, req.K, m)
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	out := &topkResponse{Routes: make([]topkEntry, 0, len(res))}
	for _, r := range res {
		out.Routes = append(out.Routes, topkEntry{
			Path: edgeIDs(r.Path), Prob: r.Prob, MeanS: r.Dist.Mean(),
		})
	}
	return out, http.StatusOK, ""
}

// evalState validates and answers one segment evaluation; the status
// contract matches evalDistribution. The relayed state is untrusted
// wire data: a decode failure is the caller's 400, never a panic.
// Segment evaluation is CPU-bound like any query, so it is charged one
// MaxInFlight slot.
func (s *Server) evalState(ctx context.Context, sys *pathcost.System, req *stateRequest) (*stateResult, int, string) {
	m, err := parseMethod(req.Method)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if m == pathcost.RD {
		return nil, http.StatusBadRequest,
			"method RD draws one random decomposition over the whole query; it cannot be evaluated segment by segment"
	}
	if err := checkDepart(req.Depart); err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if req.UIHi < req.UILo {
		return nil, http.StatusBadRequest,
			fmt.Sprintf("inverted departure interval [%g, %g]", req.UILo, req.UIHi)
	}
	p, err := parsePath(sys.Graph, req.Path, s.cfg.MaxPathEdges)
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
	if !s.acquire(ctx) {
		status, msg := s.timeoutOutcome(ctx)
		return nil, status, msg
	}
	res, err := func() (*pathcost.SegmentResult, error) {
		defer s.release() // deferred: a panicking evaluation must not leak the slot
		return sys.EvaluateSegment(pathcost.SegmentInput{
			Path:   p,
			Depart: req.Depart,
			UI:     pathcost.TimeInterval{Lo: req.UILo, Hi: req.UIHi},
			State:  st,
			Opt:    pathcost.QueryOptions{Method: m},
			Ctx:    ctx,
		})
	}()
	if err != nil {
		status, msg := s.queryErrorStatus(ctx, err)
		return nil, status, msg
	}
	enc, err := res.State.Encode()
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
	p := s.pipeline.Load()
	if p == nil {
		s.wire.Error(w, http.StatusNotFound, "ingestion is disabled on this server")
		return
	}
	var req ingestRequest
	// Raw GPS batches are bulkier than queries: a trace is hundreds of
	// fixes, so the body cap is 16 MiB instead of api.MaxQueryBody's 1 MiB.
	if !s.wire.Read(w, r, &req, 16<<20) {
		return
	}
	if len(req.Trajectories) == 0 {
		s.wire.Error(w, http.StatusBadRequest, "batch must contain at least one trajectory")
		return
	}
	if len(req.Trajectories) > s.cfg.MaxIngestBatch {
		s.wire.Error(w, http.StatusBadRequest,
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
	if !s.acquire(ctx) {
		return
	}
	st := func() ingest.BatchStats {
		defer s.release() // deferred: a panicking match must not leak the slot
		return p.IngestRaw(raw)
	}()
	sys := s.System()
	est := sys.EpochStats()
	s.wire.Write(w, http.StatusOK, ingestResponse{
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
		s.wire.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	sys := s.System()
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
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Abandoned:       s.abandoned.Load(),
		Shed:            s.shed.Load(),
		Reloads:         s.reloads.Load(),
		MaxInFlight:     s.cfg.MaxInFlight,
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
	if sst, ok := sys.SynopsisStats(); ok {
		resp.Synopsis = &synopsisStatsJSON{
			Entries: sst.Entries, Bytes: sst.Bytes,
			Hits: sst.Hits, Misses: sst.Misses, HitRate: sst.HitRate(),
		}
	}
	if pst, ok := sys.PlannerStats(); ok {
		resp.Planner = &plannerStatsJSON{
			Workers: pst.Workers, Batches: pst.Batches,
			Queries: pst.Queries, Planned: pst.Planned, Fallback: pst.Fallback,
			Nodes: pst.Nodes, SharedNodes: pst.SharedNodes,
			Convolutions: pst.Convolutions, ProbeHits: pst.ProbeHits,
			IndependentSteps: pst.IndependentSteps, SavedSteps: pst.SavedSteps(),
		}
	}
	// The ingest and epoch blocks describe the streaming-ingestion
	// lifecycle; on a query-only server (-ingest off) that machinery is
	// deliberately dark, so the blocks are omitted just as the
	// /v1/ingest endpoint is — a read-only replica should not advertise
	// an update pipeline it refuses to feed.
	if s.cfg.EnableIngest {
		if p := s.pipeline.Load(); p != nil {
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
			Seq:                    est.Seq,
			Publishes:              est.Publishes,
			StagedPending:          est.StagedPending,
			StagedTotal:            est.StagedTotal,
			DecayHalflifeS:         est.DecayHalflifeSec,
			LastTrajs:              est.LastTrajs,
			LastTouchedVars:        est.LastTouchedVars,
			LastRebuiltVars:        est.LastRebuiltVars,
			LastNewVars:            est.LastNewVars,
			LastBuildMS:            est.LastBuildMS,
			LastDecayFactor:        est.LastDecayFactor,
			SynopsisCarried:        est.SynopsisCarried,
			SynopsisRematerialized: est.SynopsisRematerialized,
			SynopsisDropped:        est.SynopsisDropped,
		}
	}
	s.wire.WriteUncounted(w, http.StatusOK, resp)
}

// checkRouteRequest shares the routing-request checks between
// /v1/route, /v1/topk and their batch twins; a non-nil error means a
// 400 with the error's message.
func checkRouteRequest(g *pathcost.Graph, req *routeRequest) (pathcost.Method, error) {
	return api.CheckRoute(g, req)
}

// queryErrorStatus maps an evaluation failure to the right status: a
// context error against an expired server deadline is a 504 (the
// client is still listening and deserves a definitive answer), while
// the same error from a vanished client writes nothing; a gate
// rejection with a live context is a 503 safety net
// (PathDistributionGated already retries rejections inherited from
// another request's leader); a leader panic shared by singleflight is
// a server fault (500, details withheld); anything else is a
// valid-but-unanswerable query (422, e.g. sparse coverage or an
// unreachable destination).
func (s *Server) queryErrorStatus(ctx context.Context, err error) (int, string) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if status, msg := s.timeoutOutcome(ctx); status != 0 {
			return status, msg
		}
		// A follower unparked by its own dead caller context; the
		// semaphore was never touched, so account the shed load here.
		s.abandoned.Add(1)
		return 0, ""
	case errors.Is(err, pathcost.ErrGateRejected):
		if status, msg := s.timeoutOutcome(ctx); status != 0 {
			return status, msg
		}
		if ctx.Err() != nil {
			return 0, "" // our own client is gone; no one is listening
		}
		return http.StatusServiceUnavailable, "computation aborted, retry"
	case errors.Is(err, cache.ErrLeaderPanic):
		return http.StatusInternalServerError, "internal error during computation"
	default:
		return http.StatusUnprocessableEntity, err.Error()
	}
}

// writeOutcome writes an eval helper's result: status 0 writes
// nothing (the client is gone), 200 writes the response body, and
// anything else writes the error envelope.
func (s *Server) writeOutcome(w http.ResponseWriter, status int, msg string, resp any) {
	switch {
	case status == 0:
	case status == http.StatusOK:
		s.wire.Write(w, status, resp)
	default:
		s.wire.Error(w, status, msg)
	}
}

func edgeIDs(p graph.Path) []int64 { return api.EdgeIDs(p) }
