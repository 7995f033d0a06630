package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
)

// --- request plumbing --------------------------------------------------

// writeEntryOutcome writes a single-query handler's composed result:
// the payload on 200, the error envelope otherwise. An entry never
// carries status 0; a vanished client just makes the write a no-op at
// the socket.
func (c *Coordinator) writeEntryOutcome(w http.ResponseWriter, res *api.BatchResult, payload any) {
	if res.Status == http.StatusOK {
		c.wire.Write(w, http.StatusOK, payload)
		return
	}
	c.wire.Error(w, res.Status, res.Error)
}

// processOne runs a single entry through the wave engine under one
// admission slot.
func (c *Coordinator) processOne(ctx context.Context, q api.BatchQuery) (api.BatchResult, bool) {
	if !c.acquire(ctx) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return api.BatchResult{Status: http.StatusGatewayTimeout, Error: "deadline exceeded"}, true
		}
		return api.BatchResult{}, false
	}
	defer c.release()
	res := c.process(ctx, []api.BatchQuery{q})
	return res[0], true
}

// --- handlers ----------------------------------------------------------

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.wire.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	c.wire.WriteUncounted(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleDistribution(w http.ResponseWriter, r *http.Request) {
	if c.shedIfOverloaded(w) {
		return
	}
	var req api.DistributionRequest
	if !c.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := c.wire.Context(w, r, c.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "distribution", Path: req.Path, Depart: req.Depart,
		Method: req.Method, Budget: req.Budget,
	})
	if !ok {
		return
	}
	c.writeEntryOutcome(w, &res, res.Distribution)
}

func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	if c.shedIfOverloaded(w) {
		return
	}
	var req api.RouteRequest
	if !c.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := c.wire.Context(w, r, c.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "route", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method,
	})
	if !ok {
		return
	}
	c.writeEntryOutcome(w, &res, res.Route)
}

func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	if c.shedIfOverloaded(w) {
		return
	}
	var req api.TopKRequest
	if !c.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	ctx, cancel, ok := c.wire.Context(w, r, c.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "topk", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method, K: req.K,
	})
	if !ok {
		return
	}
	c.writeEntryOutcome(w, &res, res.TopK)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	if c.shedIfOverloaded(w) {
		return
	}
	var req api.BatchRequest
	if !c.wire.Read(w, r, &req, api.MaxQueryBody) {
		return
	}
	if len(req.Queries) == 0 {
		c.wire.Error(w, http.StatusBadRequest, "batch must contain at least one query")
		return
	}
	if len(req.Queries) > c.cfg.MaxBatch {
		c.wire.Error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d queries, cap is %d", len(req.Queries), c.cfg.MaxBatch))
		return
	}
	ctx, cancel, ok := c.wire.Context(w, r, c.cfg.DefaultTimeout)
	if !ok {
		return
	}
	defer cancel()
	if !c.acquire(ctx) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.wire.Error(w, http.StatusGatewayTimeout, "deadline exceeded")
		}
		return
	}
	results := func() []api.BatchResult {
		defer c.release()
		return c.process(ctx, req.Queries)
	}()
	if r.Context().Err() != nil {
		return // client gone; an expired deadline still answers (per-entry 504s)
	}
	c.wire.Write(w, http.StatusOK, api.BatchResponse{Results: results})
}

// --- stats -------------------------------------------------------------

// coordReplicaStatus is one replica's health and breaker state as the
// coordinator sees it.
type coordReplicaStatus struct {
	Base          string `json:"base"`
	Healthy       bool   `json:"healthy"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Calls         uint64 `json:"calls"`
	CallFailures  uint64 `json:"call_failures"`
	// BreakerOpen reports a breaker currently fencing this replica out
	// of the rotation; BreakerTrips counts how often it has opened.
	BreakerOpen  bool   `json:"breaker_open"`
	BreakerTrips uint64 `json:"breaker_trips"`
}

// coordShardStatus is one region's replica group. Healthy is the
// group verdict: true while any replica is believed up.
type coordShardStatus struct {
	Region   int                  `json:"region"`
	Healthy  bool                 `json:"healthy"`
	Replicas []coordReplicaStatus `json:"replicas"`
	// Epoch is the region's served model epoch, fetched live from the
	// first answering replica's /v1/stats; absent when the whole group
	// is unreachable or runs with ingestion off.
	Epoch *uint64 `json:"epoch,omitempty"`
}

type coordStatsResponse struct {
	K           int                `json:"k"`
	Shards      []coordShardStatus `json:"shards"`
	UptimeS     float64            `json:"uptime_s"`
	Served      uint64             `json:"served"`
	Rejected    uint64             `json:"rejected"`
	Abandoned   uint64             `json:"abandoned"`
	Shed        uint64             `json:"shed"`
	Hedges      uint64             `json:"hedges"`
	MaxInFlight int                `json:"max_in_flight"`
	MaxQueue    int                `json:"max_queue,omitempty"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.wire.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := coordStatsResponse{
		K:           c.part.K,
		UptimeS:     time.Since(c.start).Seconds(),
		Served:      c.served.Load(),
		Rejected:    c.rejected.Load(),
		Abandoned:   c.abandoned.Load(),
		Shed:        c.shed.Load(),
		Hedges:      c.hedges.Load(),
		MaxInFlight: c.cfg.MaxInFlight,
		MaxQueue:    c.cfg.MaxQueue,
	}
	now := time.Now()
	for _, ss := range c.shards {
		st := coordShardStatus{
			Region:  ss.region,
			Healthy: ss.healthy(),
		}
		for _, rs := range ss.replicas {
			st.Replicas = append(st.Replicas, coordReplicaStatus{
				Base:          rs.base,
				Healthy:       rs.healthy.Load(),
				Probes:        rs.probes.Load(),
				ProbeFailures: rs.probeFailures.Load(),
				Calls:         rs.calls.Load(),
				CallFailures:  rs.callFailures.Load(),
				BreakerOpen:   !rs.admitted(now),
				BreakerTrips:  rs.breakerTrips.Load(),
			})
		}
		st.Epoch = c.fetchEpoch(r.Context(), ss)
		resp.Shards = append(resp.Shards, st)
	}
	c.wire.WriteUncounted(w, http.StatusOK, resp)
}

// fetchEpoch asks a region's /v1/stats for its epoch sequence, trying
// replicas in breaker-preference order; nil when the whole group is
// down or serves without an epoch block.
func (c *Coordinator) fetchEpoch(ctx context.Context, ss *shardState) *uint64 {
	for _, rs := range ss.candidates(time.Now()) {
		if seq := c.fetchReplicaEpoch(ctx, rs); seq != nil {
			return seq
		}
	}
	return nil
}

func (c *Coordinator) fetchReplicaEpoch(ctx context.Context, rs *replicaState) *uint64 {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rs.base+"/v1/stats", nil)
	if err != nil {
		return nil
	}
	hresp, err := c.client.Do(req)
	if err != nil {
		return nil
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Epoch *struct {
			Seq uint64 `json:"seq"`
		} `json:"epoch"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&body); err != nil || body.Epoch == nil {
		return nil
	}
	return &body.Epoch.Seq
}

// --- metrics -----------------------------------------------------------

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("pathcost_coordinator_requests_served_total", "Requests answered 2xx.", c.served.Load())
	counter("pathcost_coordinator_requests_rejected_total", "Requests answered 4xx/5xx.", c.rejected.Load())
	counter("pathcost_coordinator_requests_abandoned_total", "Clients gone before composition started.", c.abandoned.Load())
	counter("pathcost_coordinator_requests_shed_total", "Requests answered 429 by the MaxQueue load shedder.", c.shed.Load())
	counter("pathcost_coordinator_hedges_total", "Second legs launched against slow or failed shard calls.", c.hedges.Load())
	fmt.Fprintf(&b, "# HELP pathcost_coordinator_uptime_seconds Seconds since the coordinator started.\n"+
		"# TYPE pathcost_coordinator_uptime_seconds gauge\npathcost_coordinator_uptime_seconds %g\n",
		time.Since(c.start).Seconds())
	fmt.Fprintf(&b, "# HELP pathcost_coordinator_shard_healthy Last known group health per region (1 while any replica is up).\n"+
		"# TYPE pathcost_coordinator_shard_healthy gauge\n")
	for _, ss := range c.shards {
		v := 0
		if ss.healthy() {
			v = 1
		}
		fmt.Fprintf(&b, "pathcost_coordinator_shard_healthy{region=%q} %d\n", fmt.Sprint(ss.region), v)
	}
	fmt.Fprintf(&b, "# HELP pathcost_coordinator_replica_healthy Last known replica health (1 healthy, 0 not).\n"+
		"# TYPE pathcost_coordinator_replica_healthy gauge\n")
	for _, ss := range c.shards {
		for _, rs := range ss.replicas {
			v := 0
			if rs.healthy.Load() {
				v = 1
			}
			fmt.Fprintf(&b, "pathcost_coordinator_replica_healthy{region=%q,replica=%q} %d\n",
				fmt.Sprint(ss.region), rs.base, v)
		}
	}
	fmt.Fprintf(&b, "# HELP pathcost_coordinator_shard_calls_total Call legs per replica.\n"+
		"# TYPE pathcost_coordinator_shard_calls_total counter\n")
	for _, ss := range c.shards {
		for _, rs := range ss.replicas {
			fmt.Fprintf(&b, "pathcost_coordinator_shard_calls_total{region=%q,replica=%q} %d\n",
				fmt.Sprint(ss.region), rs.base, rs.calls.Load())
		}
	}
	fmt.Fprintf(&b, "# HELP pathcost_coordinator_breaker_open Replica circuit breaker state (1 open, 0 closed).\n"+
		"# TYPE pathcost_coordinator_breaker_open gauge\n")
	now := time.Now()
	for _, ss := range c.shards {
		for _, rs := range ss.replicas {
			v := 0
			if !rs.admitted(now) {
				v = 1
			}
			fmt.Fprintf(&b, "pathcost_coordinator_breaker_open{region=%q,replica=%q} %d\n",
				fmt.Sprint(ss.region), rs.base, v)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
