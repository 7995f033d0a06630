package shard

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
)

// --- evaluators ----------------------------------------------------------

// processOne is evalBatch for a single entry. An entry that never got
// its slot carries the gate's mapping of its dead context: a 504, or
// status 0 (write nothing) for a vanished client.
func (c *Coordinator) processOne(ctx context.Context, q api.BatchQuery) api.BatchResult {
	res, status, msg := c.evalBatch(ctx, []api.BatchQuery{q})
	if status != http.StatusOK {
		return api.BatchResult{Status: status, Error: msg}
	}
	return res[0]
}

func (c *Coordinator) evalDistribution(ctx context.Context, req *api.DistributionRequest) (*api.DistributionResponse, int, string) {
	res := c.processOne(ctx, api.BatchQuery{
		Kind: "distribution", Path: req.Path, Depart: req.Depart,
		Method: req.Method, Budget: req.Budget,
	})
	return res.Distribution, res.Status, res.Error
}

func (c *Coordinator) evalRoute(ctx context.Context, req *api.RouteRequest) (*api.RouteResponse, int, string) {
	res := c.processOne(ctx, api.BatchQuery{
		Kind: "route", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method,
	})
	return res.Route, res.Status, res.Error
}

func (c *Coordinator) evalTopK(ctx context.Context, req *api.TopKRequest) (*api.TopKResponse, int, string) {
	res := c.processOne(ctx, api.BatchQuery{
		Kind: "topk", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method, K: req.K,
	})
	return res.TopK, res.Status, res.Error
}

// evalBatch composes a whole batch under one admission slot; a deadline
// that expires at admission is the whole request's 504.
func (c *Coordinator) evalBatch(ctx context.Context, queries []api.BatchQuery) ([]api.BatchResult, int, string) {
	if !c.gate.Acquire(ctx) {
		status, msg := c.gate.Expired(ctx)
		return nil, status, msg
	}
	defer c.gate.Release()
	return c.process(ctx, queries), http.StatusOK, ""
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
// group verdict: true while any replica is healthy.
type coordShardStatus struct {
	Region   int                  `json:"region"`
	Healthy  bool                 `json:"healthy"`
	Replicas []coordReplicaStatus `json:"replicas"`
	// Epoch is the region's served model epoch as of the last probe,
	// from the first replica in breaker-preference order that reported
	// one; absent when probing is disabled, before the first probe,
	// when every replica's last probe failed, or when the group runs
	// with ingestion off.
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
		c.gate.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := coordStatsResponse{
		K:           c.part.K,
		UptimeS:     time.Since(c.start).Seconds(),
		Served:      c.gate.Served.Load(),
		Rejected:    c.gate.Rejected.Load(),
		Abandoned:   c.gate.Abandoned.Load(),
		Shed:        c.gate.Shed.Load(),
		Hedges:      c.hedges.Load(),
		MaxInFlight: c.gate.MaxInFlight(),
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
				Healthy:       rs.healthy(),
				Probes:        rs.probes.Load(),
				ProbeFailures: rs.probeFailures.Load(),
				Calls:         rs.calls.Load(),
				CallFailures:  rs.callFailures.Load(),
				BreakerOpen:   !rs.admitted(now),
				BreakerTrips:  rs.breakerTrips.Load(),
			})
		}
		st.Epoch = ss.epoch(now)
		resp.Shards = append(resp.Shards, st)
	}
	c.gate.WriteUncounted(w, http.StatusOK, resp)
}

// --- metrics -----------------------------------------------------------

// metrics is the coordinator's /metrics, served on its main mux (it
// has no evaluation hot path to protect).
func (c *Coordinator) metrics() http.Handler {
	return api.MetricsHandler(func(m *api.Metrics) {
		m.Counter("pathcost_coordinator_requests_served_total", "Requests answered 2xx.", c.gate.Served.Load())
		m.Counter("pathcost_coordinator_requests_rejected_total", "Requests answered 4xx/5xx.", c.gate.Rejected.Load())
		m.Counter("pathcost_coordinator_requests_abandoned_total", "Clients gone before composition started.", c.gate.Abandoned.Load())
		m.Counter("pathcost_coordinator_requests_shed_total", "Requests answered 429 by the MaxQueue load shedder.", c.gate.Shed.Load())
		m.Counter("pathcost_coordinator_hedges_total", "Second legs launched against slow or failed shard calls.", c.hedges.Load())
		m.Gauge("pathcost_coordinator_uptime_seconds", "Seconds since the coordinator started.", time.Since(c.start).Seconds())
		m.Family("pathcost_coordinator_shard_healthy", "Last known group health per region (1 while any replica is up).", "gauge")
		for _, ss := range c.shards {
			m.Sample("pathcost_coordinator_shard_healthy", boolSample(ss.healthy()), "region", strconv.Itoa(ss.region))
		}
		now := time.Now()
		replicas := func(name, help, typ string, v func(*replicaState) uint64) {
			m.Family(name, help, typ)
			for _, ss := range c.shards {
				for _, rs := range ss.replicas {
					m.Sample(name, v(rs), "region", strconv.Itoa(ss.region), "replica", rs.base)
				}
			}
		}
		replicas("pathcost_coordinator_replica_healthy", "Last known replica health (1 healthy, 0 not).", "gauge",
			func(rs *replicaState) uint64 { return boolSample(rs.healthy()) })
		replicas("pathcost_coordinator_shard_calls_total", "Call legs per replica.", "counter",
			func(rs *replicaState) uint64 { return rs.calls.Load() })
		replicas("pathcost_coordinator_breaker_open", "Replica circuit breaker state (1 open, 0 closed).", "gauge",
			func(rs *replicaState) uint64 { return boolSample(!rs.admitted(now)) })
	})
}

// boolSample is a boolean gauge's sample.
func boolSample(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
