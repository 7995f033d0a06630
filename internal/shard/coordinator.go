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
	// Transport is the RoundTripper every shard leg and probe goes
	// through (tests inject failures here). nil means
	// http.DefaultTransport.
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
	base string
	// batch and stats are the replica's two URLs; auth is the
	// Authorization value its userinfo asks for, nil without one.
	batch, stats endpoint
	auth         []string
	hdr          atomic.Pointer[legHeader]

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

// candidates returns the breaker-admitted replicas, appended to dst,
// and the round-robin cursor's offset into them: the rotation starts
// there. When every breaker is open the group fails open — all
// replicas are candidates — because refusing to try at all would turn
// a transient outage into a permanent one. A group of one is its own
// candidate list, not a copy.
func (ss *shardState) candidates(t time.Time, dst []*replicaState) ([]*replicaState, int) {
	if len(ss.replicas) == 1 {
		return ss.replicas, 0
	}
	admitted := dst
	for _, rs := range ss.replicas {
		if rs.admitted(t) {
			admitted = append(admitted, rs)
		}
	}
	if len(admitted) == 0 {
		admitted = append(admitted, ss.replicas...)
	}
	off := 0
	if len(admitted) > 1 {
		off = int(ss.rr.Add(1)) % len(admitted)
	}
	return admitted, off
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
	rt     http.RoundTripper
	shards []*shardState
	start  time.Time
	hedges atomic.Uint64
	// calls pools relay calls, comps requests' compositions.
	calls, comps sync.Pool
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
		cfg:   cfg,
		g:     g,
		part:  part,
		mux:   http.NewServeMux(),
		gate:  api.NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.DefaultTimeout, "coordinator overloaded, retry later"),
		rt:    cfg.Transport,
		start: time.Now(),
	}
	if c.rt == nil {
		c.rt = http.DefaultTransport
	}
	maxLegs := 2
	for r, group := range cfg.Shards {
		ss := &shardState{region: r}
		for _, base := range strings.Split(group, "|") {
			base = strings.TrimSpace(base)
			if base == "" {
				return nil, fmt.Errorf("shard: region %d has an empty replica URL in %q", r, group)
			}
			rs := &replicaState{base: strings.TrimRight(base, "/")}
			var err error
			if rs.batch, err = newEndpoint(rs.base + "/v1/batch"); err == nil {
				rs.stats, err = newEndpoint(rs.base + "/v1/stats")
			}
			if err != nil {
				return nil, fmt.Errorf("shard: region %d replica %q: %v", r, base, err)
			}
			rs.auth = basicAuth(rs.batch.url)
			ss.replicas = append(ss.replicas, rs)
		}
		maxLegs = max(maxLegs, len(ss.replicas))
		c.shards = append(c.shards, ss)
	}
	c.calls.New = func() any { return &call{c: c, results: make(chan *leg, maxLegs)} }
	c.comps.New = func() any { return &composition{waves: make([][]*pendingQuery, part.K)} }
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
	hdr := http.Header{}
	if rs.auth != nil {
		hdr["Authorization"] = rs.auth
	}
	resp, err := c.send(rs.stats.request(rctx, http.MethodGet, hdr, nil, 0, nil), &rs.stats)
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
	// relay progress; state is the entry's copy of the last relayed
	// state, its storage reused wave to wave
	seg     int
	state   []byte
	uiLo    float64
	uiHi    float64
	factors int
	maxRank int
	// outcome; dist is a composed distribution, shaped into res once
	// every wave has run
	done bool
	res  api.BatchResult
	dist *pathcost.Histogram
}

func (p *pendingQuery) fail(status int, msg string) {
	p.done = true
	p.res = api.BatchResult{Kind: p.kind, Status: status, Error: msg}
}

// composition is one request's wave bookkeeping, pooled by the
// Coordinator: its pending entries, with their segments and relayed
// states, and the entries each region is sent in a wave. Only the
// request's goroutine and the waves it waits for touch it.
type composition struct {
	pend  []pendingQuery
	waves [][]*pendingQuery // by region
}

// newComposition takes a composition for n entries from the pool.
func (c *Coordinator) newComposition(n int) *composition {
	cp := c.comps.Get().(*composition)
	if cap(cp.pend) < n {
		cp.pend = make([]pendingQuery, n)
	}
	cp.pend = cp.pend[:n]
	return cp
}

// release zeroes what cp's entries held, keeping their storage, and
// pools it.
func (c *Coordinator) releaseComposition(cp *composition) {
	for i := range cp.pend {
		p := &cp.pend[i]
		if poisonReleased {
			for j := range p.state {
				p.state[j] = ^p.state[j]
			}
		}
		clear(p.segs)
		*p = pendingQuery{segs: p.segs[:0], state: p.state[:0]}
	}
	c.comps.Put(cp)
}

// process runs a set of batch entries to completion: proxy entries go
// to their owning shard in the first wave; cross-region distribution
// entries relay partial states across as many waves as they have
// segments. Within a wave, all of a shard's sub-queries travel in ONE
// /v1/batch call, and distinct shards are called concurrently — the
// wall-clock cost of a wave is the slowest shard, not the sum. The
// validated paths, the results and the composed answers live in sc,
// which only this goroutine touches.
func (c *Coordinator) process(ctx context.Context, queries []api.BatchQuery, sc *api.Scratch) []api.BatchResult {
	cp := c.newComposition(len(queries))
	defer c.releaseComposition(cp)
	pend, waves := cp.pend, cp.waves
	for i := range queries {
		c.classify(&pend[i], &queries[i], sc)
	}
	firstWave := true
	for {
		// Gather this wave's shard calls.
		regions := 0
		for i := range pend {
			p := &pend[i]
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
			if len(waves[region]) == 0 {
				regions++
			}
			waves[region] = append(waves[region], p)
		}
		if regions == 0 {
			break
		}
		if regions == 1 {
			// One shard to wait for (every leg of a relayed query is such
			// a wave): nothing to overlap, so no goroutine to start.
			for region, ps := range waves {
				if len(ps) > 0 {
					c.runWave(ctx, region, ps)
				}
			}
		} else {
			var wg sync.WaitGroup
			for region, ps := range waves {
				if len(ps) == 0 {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.runWave(ctx, region, ps)
				}()
			}
			wg.Wait()
		}
		for region := range waves {
			waves[region] = waves[region][:0]
		}
		firstWave = false
		if ctx.Err() != nil {
			break
		}
	}
	out := sc.Results(len(pend))
	for i := range pend {
		p := &pend[i]
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
		if p.dist != nil {
			p.res.Distribution = sc.Distribution(string(p.method),
				c.part.Params.IntervalOf(p.q.Depart), p.dist, p.dist.Summary(), nil, p.q.Budget,
				p.factors, p.maxRank, 0)
		}
		out[i] = p.res
	}
	return out
}

// classify validates one entry, into sc's storage, and decides how it
// travels: it fills p, which is zero but for its storage.
func (c *Coordinator) classify(p *pendingQuery, q *api.BatchQuery, sc *api.Scratch) {
	kind := strings.ToLower(strings.TrimSpace(q.Kind))
	if kind == "" {
		kind = "distribution"
	}
	p.q, p.kind = *q, kind
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
		}, sc)
		if err != nil {
			p.fail(http.StatusBadRequest, err.Error())
			return
		}
		p.method = m
		p.segs = c.part.appendSegments(p.segs, c.g, path)
		if len(p.segs) > 1 {
			if m == pathcost.RD {
				p.fail(http.StatusUnprocessableEntity,
					"method RD draws one random decomposition over the whole query; it cannot be composed across shards")
				return
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
}

// runWave sends one shard its share of a wave, in one pooled call, and
// applies the results before the call is released.
func (c *Coordinator) runWave(ctx context.Context, region int, ps []*pendingQuery) {
	cl := c.newCall(ctx, c.shards[region])
	defer cl.release()
	for _, p := range ps {
		cl.add(p)
	}
	bresp, err := cl.do()
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
		if res.State != nil { // not asked for, but passed on: out of the call's storage
			st := *res.State
			st.State = bytes.Clone(st.State)
			p.res.State = &st
		}
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
	p.state = append(p.state[:0], res.State.State...) // the call's storage dies with the wave
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
	// MaxResultBuckets. process shapes it through the same payload
	// builder the single-process server uses, once the waves are done:
	// concurrent waves must not share the request's Scratch.
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
	p.res = api.BatchResult{Kind: "distribution", Status: http.StatusOK}
	p.dist = dist
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
