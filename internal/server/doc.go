// Package server exposes a trained pathcost.System over an HTTP JSON
// API — the serving half of the paper's train-once/serve-many
// economics (training takes minutes to ~45 minutes on the paper's
// fleets; a query takes milliseconds). The API surface:
//
//	POST /v1/distribution  — path cost-distribution query
//	POST /v1/route         — probabilistic budget routing
//	POST /v1/topk          — top-k paths by on-time probability
//	POST /v1/batch         — N distribution/route/topk queries at once
//	GET  /v1/stats         — model, cache, memo and serving counters
//	GET  /healthz          — liveness
//
// docs/API.md is the full request/response reference.
//
// The serving chassis — admission, shedding, deadlines, request
// limits, healthz and the metrics writer — is api.Gate's, shared with
// the sharded coordinator; this package supplies the evaluators. The
// handler is safe for arbitrary client concurrency: query evaluation
// is bounded by the gate's slots (Config.MaxInFlight) so a traffic
// spike degrades into queueing rather than into unbounded goroutine
// and memory growth; model updates arrive as epoch publishes on the
// served System, never by replacing it. A batch is its entries
// answered in order, each through the
// evaluator its single request uses and charged like it; when the
// served System has a convolution memo enabled (EnableConvMemo),
// overlapping distribution entries reuse each other's prefix states.
// A client that wants parallelism sends concurrent requests.
package server
