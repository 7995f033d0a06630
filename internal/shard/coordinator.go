package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pathcost "repro"
	"repro/internal/api"
)

// Config tunes a Coordinator. The request limits are api's constants,
// the same as a single process's.
type Config struct {
	// Shards lists the shard base URLs, indexed by region: Shards[r]
	// serves region r of the partition. Length must equal Partition.K.
	// Each element may name a replica group — several URLs separated by
	// "|" ("http://a:8080|http://b:8080") all serving the same region's
	// model. Calls round-robin across a group's breaker-admitted
	// replicas, and retry/hedge legs prefer a sibling replica, so one
	// replica dying degrades nothing.
	Shards []string
	// MaxInFlight caps concurrently composed client requests (0 =
	// api.DefaultMaxInFlight). One slot covers a request's whole
	// composition, however many shard calls it fans out to — the
	// coordinator's own work is I/O, not evaluation.
	MaxInFlight int
	// MaxQueue, when > 0, sheds: a request arriving with MaxQueue
	// waiters already queued is answered 429 + Retry-After.
	MaxQueue int
	// Timeout bounds each shard call leg (0 = 10s).
	Timeout time.Duration
	// HedgeAfter starts a second, racing leg against a shard that has
	// not answered yet (0 = 150ms). A leg that fails outright — dead
	// socket, garbage response — triggers the retry immediately,
	// without waiting for the timer.
	HedgeAfter time.Duration
	// ProbeInterval spaces health probes per replica (0 = 2s, negative
	// disables probing). A probe GETs the replica's /v1/stats and is
	// observed exactly like a shard call leg: a success closes the
	// replica's circuit breaker — recovery never waits longer than one
	// probe interval — and breakerThreshold failures in a row open it.
	// Probes also record each region's epoch for /v1/stats.
	ProbeInterval time.Duration
	// DefaultTimeout, when > 0, bounds every client request with an
	// end-to-end deadline: the composition context expires after this
	// long and the request answers 504. The remaining budget is
	// forwarded to every shard leg as the api.BudgetHeader header, so
	// shards never burn evaluation time an expired caller cannot use.
	// Clients tighten (never widen) the bound per request with the
	// same header. 0 leaves requests unbounded.
	DefaultTimeout time.Duration
	// Transport overrides the HTTP transport (tests inject failures
	// here). nil means http.DefaultTransport.
	Transport http.RoundTripper
}

// A replica's circuit breaker opens after breakerThreshold consecutive
// failed observations and fences the replica out for breakerCooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// replicaState is one replica's connection bookkeeping plus its state
// machine: consecFails counts failed observations since the last
// success, openUntil (unix nanos) fences the replica out while > now.
// observe is the only writer of both.
type replicaState struct {
	base          string
	probes        atomic.Uint64
	probeFailures atomic.Uint64
	calls         atomic.Uint64
	callFailures  atomic.Uint64
	consecFails   atomic.Uint32
	openUntil     atomic.Int64
	breakerTrips  atomic.Uint64
	// epoch is the model epoch the last successful probe read; nil
	// before it, after a failed probe, or when the replica serves
	// without an epoch block (ingestion off).
	epoch atomic.Pointer[uint64]
}

// observe is the replica state machine's one transition, fed by every
// shard call leg and every health probe alike (the table in
// docs/ARCHITECTURE.md, "Failure domains & recovery"). A nil err is a
// success: the failure count resets and the breaker closes. A failure
// at t counts one more, and from breakerThreshold on (re-)opens the
// breaker until t + breakerCooldown — so a failed half-open trial
// re-opens it at once.
func (rs *replicaState) observe(err error, t time.Time) {
	if err == nil {
		rs.consecFails.Store(0)
		rs.openUntil.Store(0)
		return
	}
	if n := rs.consecFails.Add(1); n >= breakerThreshold {
		rs.breakerTrips.Add(1)
		rs.openUntil.Store(t.Add(breakerCooldown).UnixNano())
	}
}

// healthy reports whether the replica's last observation succeeded.
func (rs *replicaState) healthy() bool { return rs.consecFails.Load() == 0 }

// admitted reports whether the breaker lets a leg through at t. Once
// the cooldown elapses the breaker is half-open: legs flow again, and
// the first observation decides whether it closes or re-opens.
func (rs *replicaState) admitted(t time.Time) bool {
	open := rs.openUntil.Load()
	return open == 0 || t.UnixNano() >= open
}

// shardState is one region's replica group.
type shardState struct {
	region   int
	replicas []*replicaState
	rr       atomic.Uint64
}

// healthy reports whether any replica in the group is healthy.
func (ss *shardState) healthy() bool {
	for _, rs := range ss.replicas {
		if rs.healthy() {
			return true
		}
	}
	return false
}

// epoch is the region's served model epoch as of the last probe: the
// first one recorded, admitted replicas before fenced ones, each in
// configuration order. It never moves the rotation cursor.
func (ss *shardState) epoch(t time.Time) *uint64 {
	var fenced *uint64
	for _, rs := range ss.replicas {
		seq := rs.epoch.Load()
		if seq == nil {
			continue
		}
		if rs.admitted(t) {
			return seq
		}
		if fenced == nil {
			fenced = seq
		}
	}
	return fenced
}

// candidates returns the breaker-admitted replicas rotated by the
// round-robin cursor. When every breaker is open the group fails open
// — all replicas are candidates — because refusing to try at all
// would turn a transient outage into a permanent one.
func (ss *shardState) candidates(t time.Time) []*replicaState {
	admitted := make([]*replicaState, 0, len(ss.replicas))
	for _, rs := range ss.replicas {
		if rs.admitted(t) {
			admitted = append(admitted, rs)
		}
	}
	if len(admitted) == 0 {
		admitted = append(admitted, ss.replicas...)
	}
	if len(admitted) > 1 {
		off := int(ss.rr.Add(1)) % len(admitted)
		admitted = append(admitted[off:len(admitted):len(admitted)], admitted[:off]...)
	}
	return admitted
}

// Coordinator serves the single-process HTTP API over a fleet of
// shards. Distribution queries whose path crosses region cuts are
// decomposed into per-region segments, evaluated shard by shard
// through the partial-state protocol (batch entries of kind "state"),
// and composed into the final distribution coordinator-side; every
// other query is proxied whole to the shard owning it. Create with
// New, mount via Handler.
type Coordinator struct {
	cfg    Config
	g      *pathcost.Graph
	part   *Partition
	mux    *http.ServeMux
	gate   *api.Gate // admission, deadlines and the wire, shared with the server
	client *http.Client
	shards []*shardState
	start  time.Time
	hedges atomic.Uint64
}

// New builds a Coordinator over g's partition.
func New(g *pathcost.Graph, part *Partition, cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) != part.K {
		return nil, fmt.Errorf("shard: partition has %d regions but %d shard addresses were given",
			part.K, len(cfg.Shards))
	}
	if len(part.Vertex) != g.NumVertices() {
		return nil, fmt.Errorf("shard: partition is for %d vertices, network has %d",
			len(part.Vertex), g.NumVertices())
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 150 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	c := &Coordinator{
		cfg:    cfg,
		g:      g,
		part:   part,
		mux:    http.NewServeMux(),
		gate:   api.NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.DefaultTimeout, "coordinator overloaded, retry later"),
		client: &http.Client{Transport: cfg.Transport},
		start:  time.Now(),
	}
	for r, group := range cfg.Shards {
		ss := &shardState{region: r}
		for _, base := range strings.Split(group, "|") {
			base = strings.TrimSpace(base)
			if base == "" {
				return nil, fmt.Errorf("shard: region %d has an empty replica URL in %q", r, group)
			}
			ss.replicas = append(ss.replicas, &replicaState{base: strings.TrimRight(base, "/")})
		}
		c.shards = append(c.shards, ss)
	}
	c.mux.HandleFunc("/healthz", c.gate.Healthz)
	c.mux.Handle("/metrics", c.metrics())
	c.mux.HandleFunc("/v1/distribution", api.Endpoint(c.gate, c.evalDistribution))
	c.mux.HandleFunc("/v1/route", api.Endpoint(c.gate, c.evalRoute))
	c.mux.HandleFunc("/v1/topk", api.Endpoint(c.gate, c.evalTopK))
	c.mux.HandleFunc("/v1/batch", c.gate.Batch(c.evalBatch))
	c.mux.HandleFunc("/v1/stats", c.handleStats)
	return c, nil
}

// Handler returns the HTTP handler tree (also usable with httptest).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// RunListener serves on ln until ctx is cancelled, with the same drain
// contract as the single-process server; it also starts the per-shard
// health probers, which live exactly as long as serving does.
func (c *Coordinator) RunListener(ctx context.Context, ln net.Listener, drain time.Duration) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if c.cfg.ProbeInterval > 0 {
		for _, ss := range c.shards {
			for _, rs := range ss.replicas {
				go c.probeLoop(pctx, rs)
			}
		}
	}
	return api.ServeListener(ctx, c.mux, ln, drain)
}

// probeLoop polls one replica's /v1/stats, so a recovered replica
// rejoins the rotation within one probe interval even if no query has
// tried it since the cooldown.
func (c *Coordinator) probeLoop(ctx context.Context, rs *replicaState) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		c.probeOnce(ctx, rs)
	}
}

// probeOnce GETs the replica's /v1/stats, which a shard writes
// uncounted and ungated and answers 200 exactly when its /healthz
// does — so the outcome is the same evidence a leg's is, and observe
// takes it the same way. It records the epoch the replica reports, so
// the coordinator's own /v1/stats needs no network I/O.
func (c *Coordinator) probeOnce(ctx context.Context, rs *replicaState) {
	rs.probes.Add(1)
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rs.base+"/v1/stats", nil)
	var resp *http.Response
	if err == nil {
		resp, err = c.client.Do(req)
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("stats answered %d", resp.StatusCode)
	}
	if err != nil {
		rs.probeFailures.Add(1)
		rs.epoch.Store(nil)
		rs.observe(err, time.Now())
		return
	}
	var body struct {
		Epoch *struct {
			Seq uint64 `json:"seq"`
		} `json:"epoch"`
	}
	var seq *uint64
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body) == nil && body.Epoch != nil {
		seq = &body.Epoch.Seq
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	rs.epoch.Store(seq)
	rs.observe(nil, time.Now())
}

// --- query composition -------------------------------------------------

// pendingQuery tracks one batch entry through the wave engine.
type pendingQuery struct {
	q    api.BatchQuery
	kind string
	// segs is the region decomposition (state-relay entries only).
	segs   []Segment
	method pathcost.Method
	// relay progress
	seg     int
	state   []byte
	uiLo    float64
	uiHi    float64
	factors int
	maxRank int
	// outcome
	done bool
	res  api.BatchResult
}

func (p *pendingQuery) fail(status int, msg string) {
	p.done = true
	p.res = api.BatchResult{Kind: p.kind, Status: status, Error: msg}
}

// process runs a set of batch entries to completion: proxy entries go
// to their owning shard in the first wave; cross-region distribution
// entries relay partial states across as many waves as they have
// segments. Within a wave, all of a shard's sub-queries travel in ONE
// /v1/batch call, and distinct shards are called concurrently — the
// wall-clock cost of a wave is the slowest shard, not the sum.
func (c *Coordinator) process(ctx context.Context, queries []api.BatchQuery) []api.BatchResult {
	pend := make([]*pendingQuery, len(queries))
	for i := range queries {
		pend[i] = c.classify(&queries[i])
	}
	firstWave := true
	for {
		// Gather this wave's shard calls.
		perShard := map[int][]*pendingQuery{}
		for _, p := range pend {
			if p.done {
				continue
			}
			var region int
			switch p.kind {
			case "route", "topk", "distribution":
				if !firstWave {
					continue // proxied in wave 0; result already applied
				}
				if len(p.segs) > 0 { // single-segment distribution proxy
					region = p.segs[0].Region
				} else {
					region = c.part.Vertex[p.q.Source]
				}
			case "state":
				region = p.segs[p.seg].Region
			}
			perShard[region] = append(perShard[region], p)
		}
		if len(perShard) == 0 {
			break
		}
		if len(perShard) == 1 {
			// One shard to wait for (every leg of a relayed query is such
			// a wave): nothing to overlap, so no goroutine to start.
			for region, ps := range perShard {
				c.runWave(ctx, region, ps)
			}
		} else {
			var wg sync.WaitGroup
			for region, ps := range perShard {
				wg.Add(1)
				go func(region int, ps []*pendingQuery) {
					defer wg.Done()
					c.runWave(ctx, region, ps)
				}(region, ps)
			}
			wg.Wait()
		}
		firstWave = false
		if ctx.Err() != nil {
			break
		}
	}
	out := make([]api.BatchResult, len(pend))
	for i, p := range pend {
		if !p.done {
			// The context died between waves, before this entry's next
			// runWave could settle it. A deadline is a definitive 504;
			// a cancellation's result is never written anyway.
			status, msg := c.gate.Expired(ctx)
			if status == 0 {
				status, msg = http.StatusServiceUnavailable, "composition abandoned"
			}
			p.fail(status, msg)
		}
		out[i] = p.res
	}
	return out
}

// classify validates one entry and decides how it travels.
func (c *Coordinator) classify(q *api.BatchQuery) *pendingQuery {
	kind := strings.ToLower(strings.TrimSpace(q.Kind))
	if kind == "" {
		kind = "distribution"
	}
	p := &pendingQuery{q: *q, kind: kind}
	switch kind {
	case "route", "topk":
		if _, err := api.CheckRoute(c.g, &api.RouteRequest{
			Source: q.Source, Dest: q.Dest, Depart: q.Depart, Budget: q.Budget, Method: q.Method,
		}); err != nil {
			p.fail(http.StatusBadRequest, err.Error())
		}
	case "distribution":
		m, path, err := api.CheckDistribution(c.g, &api.DistributionRequest{
			Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget,
		})
		if err != nil {
			p.fail(http.StatusBadRequest, err.Error())
			return p
		}
		p.method = m
		p.segs = c.part.SegmentPath(c.g, path)
		if len(p.segs) > 1 {
			if m == pathcost.RD {
				p.fail(http.StatusUnprocessableEntity,
					"method RD draws one random decomposition over the whole query; it cannot be composed across shards")
				return p
			}
			p.kind = "state"
			p.uiLo, p.uiHi = q.Depart, q.Depart
		}
	case "state":
		// The partial-state protocol is shard-internal; accepting it
		// here would let clients smuggle states past the composition
		// invariants.
		p.fail(http.StatusBadRequest, `kind "state" is internal to the sharded tier (want distribution, route or topk)`)
	default:
		p.fail(http.StatusBadRequest,
			fmt.Sprintf("unknown kind %q (want distribution, route or topk)", q.Kind))
	}
	return p
}

// runWave sends one shard its share of a wave and applies the results.
func (c *Coordinator) runWave(ctx context.Context, region int, ps []*pendingQuery) {
	breq := &api.BatchRequest{Queries: make([]api.BatchQuery, len(ps))}
	for i, p := range ps {
		if p.kind == "state" {
			seg := p.segs[p.seg]
			breq.Queries[i] = api.BatchQuery{
				Kind:   "state",
				Path:   api.EdgeIDs(seg.Path),
				Depart: p.q.Depart,
				Method: string(p.method),
				UILo:   p.uiLo,
				UIHi:   p.uiHi,
				State:  p.state,
			}
		} else {
			breq.Queries[i] = p.q
		}
	}
	bresp, err := c.shardBatch(ctx, c.shards[region], breq)
	if err != nil {
		// The composition's own deadline expiring is the caller's 504,
		// not a shard fault — the replicas may be perfectly healthy.
		if status, msg := c.gate.Expired(ctx); status != 0 {
			for _, p := range ps {
				p.fail(status, msg)
			}
			return
		}
		// This shard is down for this wave; its entries fail 503, and
		// nothing else does — sibling shards' waves proceed untouched.
		for _, p := range ps {
			p.fail(http.StatusServiceUnavailable,
				fmt.Sprintf("shard %d unavailable: %v", region, err))
		}
		return
	}
	for i, p := range ps {
		c.applyResult(p, &bresp.Results[i], region)
	}
}

// applyResult folds one shard answer into its pending entry.
func (c *Coordinator) applyResult(p *pendingQuery, res *api.BatchResult, region int) {
	if p.kind != "state" {
		p.done = true
		p.res = *res
		return
	}
	if res.Status == http.StatusBadRequest {
		// classify validated the query, so a shard refusing its segment
		// is the tier's fault — most likely a state the previous shard
		// relayed corrupt — and never the client's 400.
		p.fail(http.StatusBadGateway, fmt.Sprintf("shard %d refused a relayed state entry: %s", region, res.Error))
		return
	}
	if res.Status != http.StatusOK {
		p.done = true
		p.res = api.BatchResult{Kind: "distribution", Status: res.Status, Error: res.Error}
		return
	}
	if res.State == nil {
		p.fail(http.StatusBadGateway, fmt.Sprintf("shard %d answered a state entry without a state", region))
		return
	}
	if len(res.State.State) == 0 {
		// Forwarding it would read as "first segment" to the next shard
		// and silently restart the chain there.
		p.fail(http.StatusBadGateway, fmt.Sprintf("shard %d answered a state entry with an empty state", region))
		return
	}
	p.state = res.State.State
	p.uiLo, p.uiHi = res.State.UILo, res.State.UIHi
	p.factors += res.State.Factors
	if res.State.MaxRank > p.maxRank {
		p.maxRank = res.State.MaxRank
	}
	p.seg++
	if p.seg < len(p.segs) {
		return
	}
	// Last segment answered: compose the final distribution exactly as
	// Evaluate's tail does — flatten the accumulator-only state to
	// MaxResultBuckets — and shape it through the same payload builder
	// the single-process server uses.
	cs, err := pathcost.DecodeChainState(p.state, len(p.segs[len(p.segs)-1].Path))
	if err == nil && !cs.AccOnly() {
		err = errors.New("state has open dimensions")
	}
	var dist *pathcost.Histogram
	if err == nil {
		dist, err = cs.Finalize(c.part.Params.MaxResultBuckets)
	}
	cs.Release() // the distribution outlives it; nil after a decode error
	if err != nil {
		p.fail(http.StatusBadGateway, fmt.Sprintf("shard %d returned an invalid final state: %v", region, err))
		return
	}
	p.done = true
	p.res = api.BatchResult{
		Kind:   "distribution",
		Status: http.StatusOK,
		Distribution: api.DistributionPayload(string(p.method),
			c.part.Params.IntervalOf(p.q.Depart), dist, p.q.Budget,
			p.factors, p.maxRank, 0),
	}
}

// shardBatch posts one batch to one replica of ss's group with hedged
// retry: legs race whole-call attempts — connect, send, read, decode —
// so a replica that answers garbage counts as failed just like one
// that answers nothing. The first leg goes to the round-robin pick
// among breaker-admitted replicas; a leg that fails outright launches
// the next leg immediately against the NEXT replica in rotation, and a
// leg that is merely slow (HedgeAfter) gets raced the same way. With
// replicas configured the call may try every sibling before giving up,
// so a single replica's death costs one leg's latency, never a 503.
func (c *Coordinator) shardBatch(ctx context.Context, ss *shardState, breq *api.BatchRequest) (*api.BatchResponse, error) {
	// Not pooled: a hedged or losing leg may still be sending the body
	// after this call returns.
	body, err := api.MarshalBatchRequest(breq)
	if err != nil {
		return nil, err
	}
	type legResult struct {
		rs   *replicaState
		resp *api.BatchResponse
		err  error
	}
	leg := func(rs *replicaState) legResult {
		lctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(lctx, http.MethodPost, rs.base+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			return legResult{rs: rs, err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		// Forward the leg's remaining budget so the shard stops
		// evaluating the moment this leg's clock (which already folds
		// in the caller's end-to-end deadline) runs out.
		if dl, ok := lctx.Deadline(); ok {
			req.Header.Set(api.BudgetHeader, api.FormatBudget(time.Until(dl)))
		}
		hresp, err := c.client.Do(req)
		if err != nil {
			return legResult{rs: rs, err: err}
		}
		defer hresp.Body.Close()
		buf := api.GetBuffer()
		defer api.PutBuffer(buf)
		if _, err := buf.ReadFrom(io.LimitReader(hresp.Body, 64<<20)); err != nil {
			return legResult{rs: rs, err: err}
		}
		raw := buf.Bytes() // decoded below into copies; nothing keeps raw
		if hresp.StatusCode != http.StatusOK {
			return legResult{rs: rs, err: fmt.Errorf("shard answered %d: %s", hresp.StatusCode, firstLine(raw))}
		}
		var bresp api.BatchResponse
		if err := api.UnmarshalBatchResponse(raw, &bresp); err != nil {
			return legResult{rs: rs, err: fmt.Errorf("undecodable shard response: %v", err)}
		}
		if len(bresp.Results) != len(breq.Queries) {
			return legResult{rs: rs, err: fmt.Errorf("shard answered %d results for %d queries", len(bresp.Results), len(breq.Queries))}
		}
		return legResult{rs: rs, resp: &bresp}
	}
	cands := ss.candidates(time.Now())
	// At least two legs even with one replica (the classic same-target
	// hedge); with more replicas, enough legs to try each sibling once.
	maxLegs := max(2, len(cands))
	ch := make(chan legResult, maxLegs)
	launched := 0
	launch := func() {
		rs := cands[launched%len(cands)]
		launched++
		rs.calls.Add(1)
		go func() { ch <- leg(rs) }()
	}
	launch()
	outstanding := 1
	next := func(hedge bool) {
		// A retry or hedge leg draws on the caller's remaining budget;
		// once the context is dead there is no budget left to spend.
		if launched >= maxLegs || ctx.Err() != nil {
			return
		}
		if hedge {
			c.hedges.Add(1)
		}
		outstanding++
		launch()
	}
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	var lastErr error
	for outstanding > 0 {
		select {
		case lr := <-ch:
			outstanding--
			lr.rs.observe(lr.err, time.Now())
			if lr.err == nil {
				return lr.resp, nil
			}
			lr.rs.callFailures.Add(1)
			lastErr = lr.err
			next(false) // a failed leg retries immediately on the next replica
		case <-timer.C:
			next(true) // a slow leg races the next replica
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
