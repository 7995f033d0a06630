package api

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	pathcost "repro"
	"repro/internal/hist"
)

// --- JSON shapes -----------------------------------------------------
//
// Field order and tags are load-bearing: encoding/json emits fields in
// declaration order, and the sharded serving tier promises responses
// byte-identical to a single process, and relay legs promise the bytes
// encoding/json wrote. Do not reorder. encode.go writes
// DistributionResponse, Bucket, BatchResponse, BatchResult,
// StateResult, BatchRequest and BatchQuery by hand in the same order: a
// field added here is added there (TestEncoderCoversEveryField fails
// until it is). decode.go reads BatchQuery and the state entries of a
// BatchResponse by hand too, and declines a key it does not know.

// Error is the uniform error body.
type Error struct {
	Error string `json:"error"`
}

// Bucket is one histogram bucket: P(cost ∈ [Lo, Hi)) = Pr.
type Bucket struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	Pr float64 `json:"pr"`
}

// DistributionRequest asks for the cost distribution of a path.
type DistributionRequest struct {
	// Path is the sequence of adjacent edge IDs to evaluate.
	Path []int64 `json:"path"`
	// Depart is the departure time in seconds (time-of-day or absolute).
	Depart float64 `json:"depart"`
	// Method is one of OD (default), RD, HP, LB.
	Method string `json:"method,omitempty"`
	// Budget, when > 0, adds prob_within = P(cost ≤ Budget).
	Budget float64 `json:"budget,omitempty"`
}

// DistributionResponse is the answer to a distribution query.
type DistributionResponse struct {
	Method      string   `json:"method"`
	Interval    int      `json:"interval"` // departure α-interval index
	MeanS       float64  `json:"mean_s"`
	P10S        float64  `json:"p10_s"`
	P50S        float64  `json:"p50_s"`
	P90S        float64  `json:"p90_s"`
	ProbWithin  *float64 `json:"prob_within,omitempty"`
	Buckets     []Bucket `json:"buckets"`
	DecompPaths int      `json:"decomp_paths"`
	MaxRank     int      `json:"max_rank"`
	// EvalUS is the cost of the underlying evaluation that produced
	// this answer — for a cache hit that is a prior request's
	// computation, not work done by this request.
	EvalUS int64 `json:"eval_us"`
}

// RouteRequest asks for the most reliable route within a budget.
type RouteRequest struct {
	Source int64   `json:"source"`
	Dest   int64   `json:"dest"`
	Depart float64 `json:"depart"`
	Budget float64 `json:"budget"`
	Method string  `json:"method,omitempty"`
}

// RouteResponse is the answer to a routing query.
type RouteResponse struct {
	Path     []int64 `json:"path"`
	Prob     float64 `json:"prob"`
	MeanS    float64 `json:"mean_s"`
	Explored int     `json:"explored"`
	Pruned   int     `json:"pruned"`
	EvalUS   int64   `json:"eval_us"`
}

// TopKRequest asks for the k most reliable routes within a budget.
type TopKRequest struct {
	RouteRequest
	K int `json:"k"`
}

// TopKEntry is one route of a top-k answer.
type TopKEntry struct {
	Path  []int64 `json:"path"`
	Prob  float64 `json:"prob"`
	MeanS float64 `json:"mean_s"`
}

// TopKResponse is the answer to a top-k query.
type TopKResponse struct {
	Routes []TopKEntry `json:"routes"`
}

// BatchQuery is one entry of a /v1/batch request: a flattened union
// of the distribution, route, topk and state request shapes,
// discriminated by Kind ("distribution" — the default — "route",
// "topk" or "state").
type BatchQuery struct {
	Kind   string  `json:"kind,omitempty"`
	Path   []int64 `json:"path,omitempty"`
	Source int64   `json:"source,omitempty"`
	Dest   int64   `json:"dest,omitempty"`
	Depart float64 `json:"depart"`
	Budget float64 `json:"budget,omitempty"`
	Method string  `json:"method,omitempty"`
	K      int     `json:"k,omitempty"`
	// UILo, UIHi and State apply to kind "state" only: the departure
	// interval at the segment's first edge and the relayed partial
	// state (empty for a first segment; see StateResult.State).
	UILo  float64 `json:"ui_lo,omitempty"`
	UIHi  float64 `json:"ui_hi,omitempty"`
	State []byte  `json:"state,omitempty"`
}

// BatchRequest is a /v1/batch body.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchResult is one entry's outcome. Status carries the status code
// the query would have received as a standalone request (200, 400,
// 422, 500); exactly one of the payload fields is set on 200.
type BatchResult struct {
	Kind         string                `json:"kind"`
	Status       int                   `json:"status"`
	Error        string                `json:"error,omitempty"`
	Distribution *DistributionResponse `json:"distribution,omitempty"`
	Route        *RouteResponse        `json:"route,omitempty"`
	TopK         *TopKResponse         `json:"topk,omitempty"`
	State        *StateResult          `json:"state,omitempty"`
}

// BatchResponse is a /v1/batch answer.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// StateResult is a segment evaluation's outcome: the encoded
// accumulator-only state after the segment's last factor (binary
// pstate-v2, which encoding/json carries as a base64 string), the
// departure interval past its last edge, and the segment's
// decomposition shape (Factors sum and MaxRank max across segments
// reproduce the whole-path decomposition's cardinality and max rank).
type StateResult struct {
	State   []byte  `json:"state"`
	UILo    float64 `json:"ui_lo"`
	UIHi    float64 `json:"ui_hi"`
	Factors int     `json:"factors"`
	MaxRank int     `json:"max_rank"`
}

// --- response builders -----------------------------------------------

// Buckets converts histogram buckets to their wire shape.
func Buckets(bs []hist.Bucket) []Bucket {
	out := make([]Bucket, len(bs))
	for i, b := range bs {
		out[i] = Bucket{Lo: b.Lo, Hi: b.Hi, Pr: b.Pr}
	}
	return out
}

// DistributionPayload shapes one evaluated cost distribution. Both the
// single-process server and the sharded coordinator assemble their
// distribution bodies here, from the same scalar inputs, so a
// coordinator that reproduces the single-process histogram bit-exactly
// also reproduces the response bytes exactly.
func DistributionPayload(method string, interval int, dist *hist.Histogram, budget float64, decompPaths, maxRank int, evalUS int64) *DistributionResponse {
	resp := &DistributionResponse{
		Method:      method,
		Interval:    interval,
		MeanS:       dist.Mean(),
		P10S:        dist.Quantile(0.1),
		P50S:        dist.Quantile(0.5),
		P90S:        dist.Quantile(0.9),
		Buckets:     Buckets(dist.Buckets()),
		DecompPaths: decompPaths,
		MaxRank:     maxRank,
		EvalUS:      evalUS,
	}
	if budget > 0 {
		pw := dist.ProbWithin(budget)
		resp.ProbWithin = &pw
	}
	return resp
}

// EdgeIDs converts a path to its wire shape.
func EdgeIDs(p pathcost.Path) []int64 {
	out := make([]int64, len(p))
	for i, e := range p {
		out[i] = int64(e)
	}
	return out
}

// --- validation helpers ----------------------------------------------

// Request limits, the same on both tiers. Evaluation cost grows with
// path length and batch size, so uncapped requests would let a few
// maximal ones monopolize the evaluation slots.
const (
	MaxPathEdges = 256 // edges in one path
	MaxBatch     = 64  // entries in one /v1/batch request
	MaxTopK      = 32  // the k of one /v1/topk query
)

// ParseMethod validates the method name; empty selects OD.
func ParseMethod(name string) (pathcost.Method, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "OD":
		return pathcost.OD, nil
	case "RD":
		return pathcost.RD, nil
	case "HP":
		return pathcost.HP, nil
	case "LB":
		return pathcost.LB, nil
	}
	return "", fmt.Errorf("unknown method %q (want OD, RD, HP or LB)", name)
}

// ParsePath validates the edge sequence against the served graph.
func ParsePath(g *pathcost.Graph, ids []int64, maxEdges int) (pathcost.Path, error) {
	if len(ids) == 0 {
		return nil, errors.New("path must contain at least one edge id")
	}
	if len(ids) > maxEdges {
		return nil, fmt.Errorf("path has %d edges, cap is %d", len(ids), maxEdges)
	}
	p := make(pathcost.Path, len(ids))
	for i, id := range ids {
		if id < 0 || int(id) >= g.NumEdges() {
			return nil, fmt.Errorf("edge id %d out of range [0, %d)", id, g.NumEdges())
		}
		p[i] = pathcost.EdgeID(id)
	}
	if !g.ValidPath(p) {
		return nil, errors.New("edge sequence is not a connected simple path in the served network")
	}
	return p, nil
}

// CheckVertex validates a vertex id against the served graph.
func CheckVertex(g *pathcost.Graph, name string, v int64) error {
	if v < 0 || int(v) >= g.NumVertices() {
		return fmt.Errorf("%s vertex %d out of range [0, %d)", name, v, g.NumVertices())
	}
	return nil
}

// CheckDepart validates a departure time.
func CheckDepart(depart float64) error {
	if depart < 0 {
		return fmt.Errorf("depart %v must be ≥ 0 seconds", depart)
	}
	return nil
}

// CheckDistribution validates one distribution request, on either tier
// and as a batch entry; a non-nil error means a 400 with the error's
// message.
func CheckDistribution(g *pathcost.Graph, req *DistributionRequest) (pathcost.Method, pathcost.Path, error) {
	m, err := ParseMethod(req.Method)
	if err == nil {
		err = CheckDepart(req.Depart)
	}
	if err == nil && req.Budget < 0 {
		err = fmt.Errorf("budget %v must be ≥ 0 seconds (0 or omitted skips prob_within)", req.Budget)
	}
	if err != nil {
		return "", nil, err
	}
	p, err := ParsePath(g, req.Path, MaxPathEdges)
	if err != nil {
		return "", nil, err
	}
	return m, p, nil
}

// CheckRoute shares the routing-request checks between /v1/route,
// /v1/topk and their batch twins; a non-nil error means a 400 with the
// error's message.
func CheckRoute(g *pathcost.Graph, req *RouteRequest) (pathcost.Method, error) {
	m, err := ParseMethod(req.Method)
	if err == nil {
		err = CheckDepart(req.Depart)
	}
	if err == nil {
		err = CheckVertex(g, "source", req.Source)
	}
	if err == nil {
		err = CheckVertex(g, "dest", req.Dest)
	}
	if err == nil && req.Source == req.Dest {
		err = errors.New("source and dest must differ")
	}
	if err == nil && req.Budget <= 0 {
		err = fmt.Errorf("budget %v must be > 0 seconds", req.Budget)
	}
	if err != nil {
		return "", err
	}
	return m, nil
}

// --- deadline budgets --------------------------------------------------

// BudgetHeader carries a request's remaining deadline budget in whole
// milliseconds. The coordinator stamps it on every shard leg with the
// budget left on its own clock, so a deadline set at the front door
// bounds work end to end: coordinator wait, shard evaluation, and any
// hedged retry all draw from the same allowance. Clients may set it
// directly on /v1/batch (or any query endpoint) to cap one request
// tighter than the server's -default-timeout.
const BudgetHeader = "X-Budget-Ms"

// ParseBudget reads a BudgetHeader value. It returns ok = false for an
// absent (empty) header, and an error for anything that is not a
// positive integer — a garbled budget must be rejected loudly, not
// silently treated as unlimited. A budget too large for a Duration is
// the largest one: no tighter than the tier's default, never a
// wrapped-around value that would widen it.
func ParseBudget(val string) (time.Duration, bool, error) {
	if val == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil || ms <= 0 {
		return 0, false, fmt.Errorf("invalid %s %q: want a positive integer millisecond count", BudgetHeader, val)
	}
	if ms > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64, true, nil
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// FormatBudget renders a remaining budget for BudgetHeader, rounding
// up so a sub-millisecond remainder forwards as 1 rather than an
// instantly-expired 0.
func FormatBudget(d time.Duration) string {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(int64(ms), 10)
}
