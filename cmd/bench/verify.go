package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"runtime"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/routing"
)

// Responses carry one wall-clock field, "eval_us"; everything else is
// a pure function of the request and the model. Answers are compared
// and hashed with that field's value left out.
var evalKey = []byte(`"eval_us":`)

func skipNumber(b []byte) []byte {
	i := 0
	for i < len(b) && (b[i] == '-' || (b[i] >= '0' && b[i] <= '9')) {
		i++
	}
	return b[i:]
}

// stripped returns body without the values of its eval_us fields.
func stripped(body []byte) []byte {
	out := make([]byte, 0, len(body))
	for {
		i := bytes.Index(body, evalKey)
		if i < 0 {
			return append(out, body...)
		}
		i += len(evalKey)
		out = append(out, body[:i]...)
		body = skipNumber(body[i:])
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcStripped folds stripped(body) into crc without allocating. Every
// measured lap chains it over its responses; SHA-256 at a few µs per
// response would cost as much as a cached request does.
func crcStripped(crc uint32, body []byte) uint32 {
	for {
		i := bytes.Index(body, evalKey)
		if i < 0 {
			return crc32.Update(crc, castagnoli, body)
		}
		i += len(evalKey)
		crc = crc32.Update(crc, castagnoli, body[:i])
		body = skipNumber(body[i:])
	}
}

// ingestAnswer is the /v1/ingest response shape.
type ingestAnswer struct {
	Received      int    `json:"received"`
	Matched       int    `json:"matched"`
	MatchFailed   int    `json:"match_failed"`
	Staged        int    `json:"staged"`
	Rejected      int    `json:"rejected"`
	StagedPending int    `json:"staged_pending"`
	Epoch         uint64 `json:"epoch"`
}

// publishAnswer renders what a publish op did, wall-clock excluded;
// the driver and the oracle both describe their publish with it.
func publishAnswer(st pathcost.EpochStats) []byte {
	return fmt.Appendf(nil, `{"seq":%d,"trajs":%d,"touched":%d,"rebuilt":%d,"new":%d}`+"\n",
		st.Seq, st.LastTrajs, st.LastTouchedVars, st.LastRebuiltVars, st.LastNewVars)
}

// oracle answers a lap's ops one after another with every reuse layer
// out of the way: distributions through HybridGraph.CostDistribution,
// routes through a Router with no memo, ingest and publish on its own
// copy of the model. What the served system answers through its
// caches, memo, planner, shard relay and epoch swap must match it
// byte for byte.
type oracle struct {
	sys  *pathcost.System
	pipe *ingest.Pipeline
}

func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v) // the servers' writeJSON form, newline included
	return buf.Bytes(), err
}

// parseDistribution validates a distribution request the way the
// server does (server.Config's default path cap).
func parseDistribution(g *pathcost.Graph, r *api.DistributionRequest) (pathcost.Method, pathcost.Path, error) {
	m, err := api.ParseMethod(r.Method)
	if err == nil {
		err = api.CheckDepart(r.Depart)
	}
	if err != nil {
		return "", nil, err
	}
	p, err := api.ParsePath(g, r.Path, 256)
	return m, p, err
}

func (o *oracle) distribution(r *api.DistributionRequest) (*api.DistributionResponse, error) {
	h := o.sys.Hybrid()
	m, p, err := parseDistribution(h.G, r)
	if err != nil {
		return nil, err
	}
	res, err := h.CostDistribution(p, r.Depart, pathcost.QueryOptions{Method: m})
	if err != nil {
		return nil, err
	}
	var mass float64
	for _, b := range res.Dist.Buckets() {
		mass += b.Pr
	}
	if math.Abs(mass-1) > 1e-9 {
		return nil, fmt.Errorf("histogram mass %.12f is not 1", mass)
	}
	return api.DistributionPayload(string(m), h.Params.IntervalOf(r.Depart), res.Dist,
		r.Budget, res.Decomp.Cardinality(), res.Decomp.MaxRank(), 0), nil
}

func (o *oracle) answer(p *op) ([]byte, error) {
	switch p.kind {
	case opDist:
		resp, err := o.distribution(&p.dist)
		if err != nil {
			return nil, err
		}
		return encodeLine(resp)
	case opBatch:
		out := api.BatchResponse{Results: make([]api.BatchResult, len(p.batch))}
		for i := range p.batch {
			resp, err := o.distribution(&p.batch[i])
			if err != nil {
				return nil, err
			}
			out.Results[i] = api.BatchResult{Kind: "distribution", Status: http.StatusOK, Distribution: resp}
		}
		return encodeLine(out)
	case opRoute, opTopK:
		rt := routing.New(o.sys.Hybrid())
		q := routing.Query{
			Source: pathcost.VertexID(p.route.Source), Dest: pathcost.VertexID(p.route.Dest),
			Depart: p.route.Depart, Budget: p.route.Budget,
		}
		opt := routing.Options{Method: pathcost.OD, Incremental: true}
		if p.kind == opRoute {
			res, err := rt.BestPath(q, opt)
			if err != nil {
				return nil, err
			}
			return encodeLine(api.RouteResponse{
				Path: api.EdgeIDs(res.Path), Prob: res.Prob, MeanS: res.Dist.Mean(),
				Explored: res.Explored, Pruned: res.Pruned,
			})
		}
		res, err := rt.TopKPaths(q, p.route.K, opt)
		if err != nil {
			return nil, err
		}
		out := api.TopKResponse{Routes: make([]api.TopKEntry, 0, len(res))}
		for _, r := range res {
			out.Routes = append(out.Routes, api.TopKEntry{Path: api.EdgeIDs(r.Path), Prob: r.Prob, MeanS: r.Dist.Mean()})
		}
		return encodeLine(out)
	case opIngest:
		if o.pipe == nil {
			pipe, err := ingest.New(o.sys.Graph, o.sys, ingest.Config{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				return nil, err
			}
			o.pipe = pipe
		}
		st := o.pipe.IngestRaw(p.raw)
		est := o.sys.EpochStats()
		return encodeLine(ingestAnswer{
			Received: st.Received, Matched: st.Matched, MatchFailed: st.MatchFailed,
			Staged: st.Staged, Rejected: st.Rejected,
			StagedPending: est.StagedPending, Epoch: est.Seq,
		})
	case opPublish:
		st, err := o.sys.PublishEpoch()
		if err != nil {
			return nil, err
		}
		return publishAnswer(st), nil
	}
	return nil, fmt.Errorf("unknown op kind %d", p.kind)
}

// checkAnswers replays the lap on the oracle and compares every
// captured response (already stripped of eval_us) byte for byte. It
// returns the number of ops whose answer differed, and the first
// difference.
func checkAnswers(inst *instance, got [][]byte) (failed int, first error) {
	sys, err := inst.oracle()
	if err != nil {
		return len(inst.ops), err
	}
	o := &oracle{sys: sys}
	for i := range inst.ops {
		want, err := o.answer(&inst.ops[i])
		if err == nil && !bytes.Equal(stripped(want), got[i]) {
			err = fmt.Errorf("answer differs from the oracle's:\n got  %.300s\n want %.300s", got[i], want)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("op %d (%s): %w", i, opNames[inst.ops[i].kind], err)
			}
		}
	}
	return failed, first
}
