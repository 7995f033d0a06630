package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/hist"
	"repro/internal/ingest"
	"repro/internal/mapmatch"
	"repro/internal/shard"
	"repro/internal/wal"
)

// perLayer lists the single-layer metrics of a traced run. Each is
// measured from outside, by timing calls into the layer's public
// functions or reading its public counters; a metric a workload does
// not exercise reads 0 there. The README says which end-to-end metric
// each one should move, on which workload.
var perLayer = []metricDef{
	{Name: "api.decode_us", Unit: "us"},
	{Name: "api.encode_us", Unit: "us"},
	{Name: "api.response_bytes", Unit: "B"},
	{Name: "server.request_us", Unit: "us"},
	{Name: "server.self_us", Unit: "us"},
	{Name: "server.batch_request_us", Unit: "us"},
	{Name: "server.batch_self_us", Unit: "us"},
	{Name: "cache.hit_ratio", Unit: "ratio", Higher: true},
	{Name: "cache.evictions_per_op", Unit: "count"},
	{Name: "cache.get_ns", Unit: "ns"},
	{Name: "cache.put_ns", Unit: "ns"},
	{Name: "core.oi_us", Unit: "us"},
	{Name: "core.jc_us", Unit: "us"},
	{Name: "core.mc_us", Unit: "us"},
	{Name: "core.factors_per_op", Unit: "count"},
	{Name: "core.cells_per_op", Unit: "count"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "core.memo_fill_us", Unit: "us"},
	{Name: "core.synopsis_hit_ratio", Unit: "ratio", Higher: true},
	{Name: "core.planner_saved_step_ratio", Unit: "ratio", Higher: true},
	{Name: "core.planner_convolutions_per_batch", Unit: "count"},
	{Name: "core.publish_ms", Unit: "ms"},
	{Name: "core.state_encode_us", Unit: "us"},
	{Name: "core.state_decode_us", Unit: "us"},
	{Name: "core.state_bytes", Unit: "B"},
	{Name: "hist.multiply_ns_per_cell", Unit: "ns"},
	{Name: "hist.sum_histogram_us", Unit: "us"},
	{Name: "hist.merge_delta_us", Unit: "us"},
	{Name: "routing.request_ms", Unit: "ms"},
	{Name: "routing.bestpath_ms", Unit: "ms"},
	{Name: "routing.topk_ms", Unit: "ms"},
	{Name: "routing.explored_per_op", Unit: "count"},
	{Name: "routing.pruned_ratio", Unit: "ratio", Higher: true},
	{Name: "shard.legs_per_op", Unit: "count"},
	{Name: "shard.leg_us", Unit: "us"},
	{Name: "shard.coord_self_us", Unit: "us"},
	{Name: "shard.cross_share", Unit: "ratio", Higher: true},
	{Name: "shard.segment_path_ns", Unit: "ns"},
	{Name: "mapmatch.us_per_fix", Unit: "us"},
	{Name: "mapmatch.fail_ratio", Unit: "ratio"},
	{Name: "ingest.stage_us_per_traj", Unit: "us"},
	{Name: "wal.append_us_per_batch", Unit: "us"},
	{Name: "wal.bytes_per_traj", Unit: "B"},
	{Name: "wal.replay_mb_s", Unit: "MB/s", Higher: true},
	{Name: "driver.p99_ms", Unit: "ms"},
	{Name: "driver.lap_median_rps", Unit: "1/s", Higher: true},
	{Name: "driver.lap_spread_pct", Unit: "%"},
	{Name: "driver.gc_cycles_per_lap", Unit: "count"},
	{Name: "driver.trace_overhead_pct", Unit: "%"},
}

const (
	tracedLaps = 6
	directLaps = 2
	probeCap   = 400 // queries, variables or paths a micro-probe visits
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reuseCounters accumulates the reuse layers' public counters over
// laps. It snapshots at lap start and end because ingest_mixed serves
// a freshly restored System every lap.
type reuseCounters struct {
	cacheHit, cacheMiss, cacheEvict  float64
	memoHit, memoMiss                float64
	synHit, synMiss                  float64
	batches, convs, saved, indepStep float64
	ops                              float64

	c0, m0 pathcost.CacheStats
	s0     pathcost.SynopsisStats
	p0     pathcost.PlannerStats
}

func (r *reuseCounters) begin(sys *pathcost.System) {
	r.c0, _ = sys.QueryCacheStats()
	r.m0, _ = sys.ConvMemoStats()
	r.s0, _ = sys.SynopsisStats()
	r.p0, _ = sys.PlannerStats()
}

func (r *reuseCounters) end(sys *pathcost.System, ops int) {
	c, _ := sys.QueryCacheStats()
	m, _ := sys.ConvMemoStats()
	s, _ := sys.SynopsisStats()
	p, _ := sys.PlannerStats()
	r.cacheHit += float64(c.Hits - r.c0.Hits)
	r.cacheMiss += float64(c.Misses - r.c0.Misses)
	r.cacheEvict += float64(c.Evictions - r.c0.Evictions)
	r.memoHit += float64(m.Hits - r.m0.Hits)
	r.memoMiss += float64(m.Misses - r.m0.Misses)
	r.synHit += float64(s.Hits - r.s0.Hits)
	r.synMiss += float64(s.Misses - r.s0.Misses)
	r.batches += float64(p.Batches - r.p0.Batches)
	r.convs += float64(p.Convolutions - r.p0.Convolutions)
	r.saved += float64(p.SavedSteps() - r.p0.SavedSteps())
	r.indepStep += float64(p.IndependentSteps - r.p0.IndependentSteps)
	r.ops += float64(ops)
}

// traceRun is the traced part of a -trace 1 run. End-to-end metrics
// are never taken from it. It drives up to six laps with a root span
// per request (and a child per shard leg), replays the lap through
// direct calls into the layers' public functions, and runs the
// micro-probes the workload's layers call for.
func traceRun(inst *instance, d *driver, opt *options, res *result, untraced []lapStats) error {
	L := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		L[m.Name] = 0
	}
	res.Layers = L
	nTraced, nDirect := min(tracedLaps, opt.laps), min(directLaps, opt.laps)

	// The driver's own bookkeeping, from the untraced laps.
	var gcs float64
	for i := range untraced {
		gcs += float64(untraced[i].gcs)
	}
	best, med := res.Metrics["throughput_rps"], median(res.PerLap["throughput_rps"])
	L["driver.p99_ms"] = bestLap(res.PerLap["p99_ms"], false)
	L["driver.lap_median_rps"] = med
	L["driver.lap_spread_pct"] = 100 * ratio(best-med, best)
	L["driver.gc_cycles_per_lap"] = gcs / float64(len(untraced))

	// Traced laps: real spans around every request and shard leg.
	tr := newTracer()
	res.tracer = tr
	var reuse reuseCounters
	d.tracer = tr
	d.lapStart = func(in *instance) { reuse.begin(in.sys) }
	d.lapEnd = func(in *instance) { reuse.end(in.sys, len(in.ops)) }
	if inst.transport != nil {
		inst.transport.tracer = tr
	}
	var tracedUs []float64
	for len(tracedUs) < nTraced {
		st, err := d.lap(inst, nil)
		if err != nil {
			return err
		}
		tracedUs = append(tracedUs, st.meanUs())
	}
	d.tracer, d.lapStart, d.lapEnd = nil, nil, nil
	if inst.transport != nil {
		inst.transport.tracer = nil
	}
	var untracedUs []float64
	for i := range untraced {
		untracedUs = append(untracedUs, untraced[i].meanUs())
	}
	base := bestLap(untracedUs, false)
	L["driver.trace_overhead_pct"] = 100 * ratio(bestLap(tracedUs, false)-base, base)

	L["cache.hit_ratio"] = ratio(reuse.cacheHit, reuse.cacheHit+reuse.cacheMiss)
	L["cache.evictions_per_op"] = ratio(reuse.cacheEvict, reuse.ops)
	L["core.memo_hit_ratio"] = ratio(reuse.memoHit, reuse.memoHit+reuse.memoMiss)
	L["core.synopsis_hit_ratio"] = ratio(reuse.synHit, reuse.synHit+reuse.synMiss)
	L["core.planner_saved_step_ratio"] = ratio(reuse.saved, reuse.indepStep)
	L["core.planner_convolutions_per_batch"] = ratio(reuse.convs, reuse.batches)

	// Direct laps: the same ops through the layers' public functions.
	var dl directLap
	for k := 0; k < nDirect; k++ {
		if err := dl.run(inst, tr); err != nil {
			return err
		}
	}
	spans := tr.summarize()
	meanUs := func(name string) float64 {
		if s := spans[name]; s != nil {
			return float64(s.totalNs) / 1e3 / float64(s.count)
		}
		return 0
	}
	L["api.decode_us"] = meanUs("api.decode")
	L["api.encode_us"] = meanUs("api.encode")
	L["api.response_bytes"] = ratio(float64(dl.respBytes), float64(dl.responses))
	if spans["sys.distribution"] != nil {
		L["server.request_us"] = meanUs(opNames[opDist])
		L["server.self_us"] = meanUs(opNames[opDist]) - meanUs("sys.distribution")
	}
	if spans["sys.plan"] != nil {
		L["server.batch_request_us"] = meanUs(opNames[opBatch])
		L["server.batch_self_us"] = meanUs(opNames[opBatch]) - meanUs("sys.plan")
	}
	if r, k := spans[opNames[opRoute]], spans[opNames[opTopK]]; r != nil && k != nil {
		L["routing.request_ms"] = float64(r.totalNs+k.totalNs) / 1e6 / float64(r.count+k.count)
	}
	L["routing.bestpath_ms"] = meanUs("sys.route") / 1e3
	L["routing.topk_ms"] = meanUs("sys.topk") / 1e3
	L["routing.explored_per_op"] = ratio(float64(dl.explored), float64(dl.routes))
	L["routing.pruned_ratio"] = ratio(float64(dl.pruned), float64(dl.explored))
	L["core.publish_ms"] = meanUs("sys.publish") / 1e3
	if legs := spans["shard.leg"]; legs != nil {
		roots := spans[opNames[opDist]]
		L["shard.legs_per_op"] = float64(legs.count) / float64(roots.count)
		L["shard.leg_us"] = meanUs("shard.leg")
		L["shard.coord_self_us"] = float64(roots.selfNs) / 1e3 / float64(roots.count)
		L["shard.cross_share"] = inst.crossShare
	}

	if err := probeLayers(inst, opt, L); err != nil {
		return err
	}
	L["hist.multiply_ns_per_cell"] = 1e3 * ratio(L["core.jc_us"], L["core.cells_per_op"])
	return nil
}

// directLap replays a lap's ops by calling the public functions the
// server calls, each inside its own span. Requests then cost what the
// layers below the HTTP chassis cost, in the same state the chassis
// would have found them in.
type directLap struct {
	respBytes, responses     int
	explored, pruned, routes int
}

func (dl *directLap) run(inst *instance, tr *tracer) error {
	if inst.beginLap != nil {
		if err := inst.beginLap(); err != nil {
			return err
		}
	}
	sys := inst.sys
	var pipe *ingest.Pipeline
	ctx := context.Background()
	in := func(name string, fn func() error) error {
		id := tr.begin(name, "")
		err := fn()
		tr.end(id)
		return err
	}
	payload := func(r *api.DistributionRequest, m pathcost.Method, res *pathcost.QueryResult) *api.DistributionResponse {
		return api.DistributionPayload(string(m), sys.Params.IntervalOf(r.Depart), res.Dist, r.Budget,
			res.Decomp.Cardinality(), res.Decomp.MaxRank(), res.Timing.Total().Microseconds())
	}
	encoded := func(v any) error {
		b, err := json.Marshal(v)
		dl.respBytes += len(b)
		dl.responses++
		return err
	}
	for i := range inst.ops {
		p := &inst.ops[i]
		root := tr.beginRoot("direct:" + opNames[p.kind])
		var err error
		switch p.kind {
		case opDist:
			var (
				req api.DistributionRequest
				m   pathcost.Method
				pp  pathcost.Path
				res *pathcost.QueryResult
			)
			err = in("api.decode", func() error {
				if err := json.Unmarshal(p.body, &req); err != nil {
					return err
				}
				var err error
				m, pp, err = parseDistribution(sys.Graph, &req)
				return err
			})
			if err == nil {
				err = in("sys.distribution", func() error {
					var err error
					res, err = sys.PathDistributionGated(ctx, pp, req.Depart, m, nil, nil)
					return err
				})
			}
			if err == nil {
				err = in("api.encode", func() error { return encoded(payload(&req, m, res)) })
			}
		case opBatch:
			var (
				req  api.BatchRequest
				plan []pathcost.PlanQuery
				out  []pathcost.PlanResult
			)
			err = in("api.decode", func() error {
				if err := json.Unmarshal(p.body, &req); err != nil {
					return err
				}
				for j := range req.Queries {
					q := &req.Queries[j]
					m, pp, err := parseDistribution(sys.Graph, &api.DistributionRequest{Path: q.Path, Depart: q.Depart, Method: q.Method})
					if err != nil {
						return err
					}
					plan = append(plan, pathcost.PlanQuery{Path: pp, Depart: q.Depart, Opt: pathcost.QueryOptions{Method: m}})
				}
				return nil
			})
			if err == nil {
				err = in("sys.plan", func() error {
					out, _ = sys.PlanDistributions(ctx, plan, nil, nil)
					for j := range out {
						if out[j].Err != nil {
							return out[j].Err
						}
					}
					return nil
				})
			}
			if err == nil {
				err = in("api.encode", func() error {
					resp := api.BatchResponse{Results: make([]api.BatchResult, len(out))}
					for j := range out {
						e := &p.batch[j]
						resp.Results[j] = api.BatchResult{
							Kind: "distribution", Status: http.StatusOK,
							Distribution: payload(e, plan[j].Opt.Method, out[j].Res),
						}
					}
					return encoded(resp)
				})
			}
		case opRoute:
			err = in("sys.route", func() error {
				r := &p.route
				res, err := sys.Route(pathcost.VertexID(r.Source), pathcost.VertexID(r.Dest), r.Depart, r.Budget, pathcost.OD)
				if err == nil {
					dl.explored += res.Explored
					dl.pruned += res.Pruned
					dl.routes++
				}
				return err
			})
		case opTopK:
			err = in("sys.topk", func() error {
				r := &p.route
				_, err := sys.TopKRoutes(pathcost.VertexID(r.Source), pathcost.VertexID(r.Dest), r.Depart, r.Budget, r.K, pathcost.OD)
				return err
			})
		case opIngest:
			if pipe == nil {
				if pipe, err = ingest.New(sys.Graph, sys, ingest.Config{Workers: runtime.GOMAXPROCS(0)}); err != nil {
					break
				}
			}
			err = in("ingest.raw", func() error { pipe.IngestRaw(p.raw); return nil })
		case opPublish:
			err = in("sys.publish", func() error { _, err := sys.PublishEpoch(); return err })
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("direct %s (op %d): %w", opNames[p.kind], i, err)
		}
	}
	if inst.endLap != nil {
		return inst.endLap()
	}
	return nil
}

// timed runs fn and returns its duration in nanoseconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// distQuery is one distribution query of a lap, parsed.
type distQuery struct {
	path   pathcost.Path
	depart float64
	method pathcost.Method
}

// lapQueries returns the lap's first probeCap distinct distribution
// queries (single requests and batch entries alike).
func lapQueries(inst *instance) []distQuery {
	seen := map[string]bool{}
	var out []distQuery
	add := func(r *api.DistributionRequest) {
		m, p, err := parseDistribution(inst.sys.Graph, r)
		if err != nil {
			return
		}
		key := p.Key() + "@" + strconv.FormatFloat(r.Depart, 'g', -1, 64) + "/" + string(m)
		if !seen[key] && len(out) < probeCap {
			seen[key] = true
			out = append(out, distQuery{p, r.Depart, m})
		}
	}
	for i := range inst.ops {
		switch p := &inst.ops[i]; p.kind {
		case opDist:
			add(&p.dist)
		case opBatch:
			for j := range p.batch {
				add(&p.batch[j])
			}
		}
	}
	return out
}

// probeLayers times the layers' public functions on the workload's
// own inputs. Each probe runs only where its layer is on the path.
func probeLayers(inst *instance, opt *options, L map[string]float64) error {
	sys := inst.sys
	h := sys.Hybrid()
	queries := lapQueries(inst)

	if n := float64(len(queries)); n > 0 {
		// core: the paper's OI / JC / MC split (its Fig. 17) of an
		// evaluation with no reuse layer in front, and what filling an
		// empty memo adds to it.
		var oi, jc, mc, factors, cells, plainNs, memoNs float64
		for _, q := range queries {
			o := pathcost.QueryOptions{Method: q.method}
			var res *pathcost.QueryResult
			var err error
			plainNs += timed(func() { res, err = h.CostDistribution(q.path, q.depart, o) })
			if err != nil {
				return fmt.Errorf("core probe: %w", err)
			}
			oi += float64(res.Timing.OI)
			jc += float64(res.Timing.JC)
			mc += float64(res.Timing.MC)
			factors += float64(res.Stats.Factors)
			cells += float64(res.Stats.CellsTouched)
			memo := core.NewConvMemo(cacheCapacity)
			memoNs += timed(func() { _, err = h.CostDistributionMemo(memo, q.path, q.depart, o) })
			if err != nil {
				return fmt.Errorf("memo probe: %w", err)
			}
		}
		L["core.oi_us"] = oi / 1e3 / n
		L["core.jc_us"] = jc / 1e3 / n
		L["core.mc_us"] = mc / 1e3 / n
		L["core.factors_per_op"] = factors / n
		L["core.cells_per_op"] = cells / n
		L["core.memo_fill_us"] = (memoNs - plainNs) / 1e3 / n

		// hist: the two whole-histogram operations of the model's own
		// joint variables.
		var joints []*hist.Multi
		h.ForEachVariable(func(v *core.Variable) {
			if v.Joint != nil && len(joints) < probeCap {
				joints = append(joints, v.Joint)
			}
		})
		var sumNs, mergeNs float64
		for _, m := range joints {
			var err error
			sumNs += timed(func() { _, err = m.SumHistogram(h.Params.MaxResultBuckets) })
			if err != nil {
				return fmt.Errorf("hist probe: %w", err)
			}
			delta := hist.NewDelta()
			m.ForEachSorted(func(k hist.CellKey, _ float64) {
				if delta.Len() < 8 {
					delta.Add(k, 1)
				}
			})
			var merged *hist.Multi
			mergeNs += timed(func() { merged, err = m.MergeDelta(delta, 1) })
			if err != nil {
				return fmt.Errorf("hist probe: %w", err)
			}
			hist.PutMulti(merged)
		}
		L["hist.sum_histogram_us"] = ratio(sumNs/1e3, float64(len(joints)))
		L["hist.merge_delta_us"] = ratio(mergeNs/1e3, float64(len(joints)))
	}

	if _, on := sys.QueryCacheStats(); on && len(queries) > 0 {
		// cache: Put then Get of the lap's own keys on a private LRU of
		// the daemon's capacity.
		keys := make([]string, len(queries))
		for i, q := range queries {
			keys[i] = "e1|" + q.path.Key() + "@" + strconv.Itoa(sys.Params.IntervalOf(q.depart)) + "/" + string(q.method)
		}
		lru := cache.NewLRU[*pathcost.QueryResult](cacheCapacity)
		const rounds = 20
		var putNs, getNs float64
		for r := 0; r < rounds; r++ {
			putNs += timed(func() {
				for _, k := range keys {
					lru.Put(k, nil)
				}
			})
			getNs += timed(func() {
				for _, k := range keys {
					lru.Get(k)
				}
			})
		}
		L["cache.put_ns"] = putNs / rounds / float64(len(keys))
		L["cache.get_ns"] = getNs / rounds / float64(len(keys))
	}

	if inst.part != nil {
		// shard: cutting a path at region boundaries, and the relay
		// format of the state a first segment hands to the next shard.
		var segNs, encNs, decNs, bytes, states float64
		for _, q := range queries {
			var segs []shard.Segment
			segNs += timed(func() { segs = inst.part.SegmentPath(sys.Graph, q.path) })
			if len(segs) < 2 {
				continue
			}
			first := segs[0].Path
			res, err := inst.shards[segs[0].Region].EvaluateSegment(pathcost.SegmentInput{
				Path: first, Depart: q.depart,
				UI:  pathcost.TimeInterval{Lo: q.depart, Hi: q.depart},
				Opt: pathcost.QueryOptions{Method: q.method},
			})
			if err != nil {
				return fmt.Errorf("state probe: %w", err)
			}
			var enc []byte
			encNs += timed(func() { enc, err = res.State.Encode() })
			if err == nil {
				decNs += timed(func() { _, err = pathcost.DecodeChainState(enc, len(first)) })
			}
			if err != nil {
				return fmt.Errorf("state probe: %w", err)
			}
			bytes += float64(len(enc))
			states++
		}
		L["shard.segment_path_ns"] = ratio(segNs, float64(len(queries)))
		L["core.state_encode_us"] = ratio(encNs/1e3, states)
		L["core.state_decode_us"] = ratio(decNs/1e3, states)
		L["core.state_bytes"] = ratio(bytes, states)
	}

	var raw [][]*gps.Trajectory
	for i := range inst.ops {
		if inst.ops[i].kind == opIngest {
			raw = append(raw, inst.ops[i].raw)
		}
	}
	if len(raw) > 0 {
		return probeIngest(inst, opt, raw, L)
	}
	return nil
}

// probeIngest times the write path's layers one by one on the lap's
// own ingest batches: map matching, staging, and the WAL.
func probeIngest(inst *instance, opt *options, raw [][]*gps.Trajectory, L map[string]float64) error {
	scratch, err := inst.oracle() // a restored copy of the model, no WAL attached
	if err != nil {
		return err
	}
	matcher := mapmatch.New(scratch.Graph, mapmatch.Config{})
	var matchNs, stageNs, fixes, failed, trajs float64
	matched := make([][]*gps.Matched, len(raw))
	for b, batch := range raw {
		for _, tr := range batch {
			var m *gps.Matched
			var err error
			matchNs += timed(func() { m, err = matcher.MatchToTimed(tr) })
			fixes += float64(len(tr.Records))
			trajs++
			if err != nil {
				failed++
				continue
			}
			matched[b] = append(matched[b], m)
		}
		stageNs += timed(func() { scratch.StageTrajectories(matched[b]) })
	}
	L["mapmatch.us_per_fix"] = ratio(matchNs/1e3, fixes)
	L["mapmatch.fail_ratio"] = ratio(failed, trajs)
	L["ingest.stage_us_per_traj"] = ratio(stageNs/1e3, trajs-failed)

	dir := filepath.Join(opt.workdir, "wal-probe")
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	var appendNs float64
	for _, batch := range matched {
		appendNs += timed(func() { _, err = log.Append(batch) })
		if err != nil {
			log.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
	}
	size := float64(log.Stats().Bytes)
	if err := log.Close(); err != nil {
		return err
	}
	replayNs := timed(func() { log, err = wal.Open(dir, wal.Options{}) })
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := log.Close(); err != nil {
		return err
	}
	L["wal.append_us_per_batch"] = appendNs / 1e3 / float64(len(matched))
	L["wal.bytes_per_traj"] = ratio(size, trajs-failed)
	L["wal.replay_mb_s"] = ratio(size/1e6, replayNs/1e9)
	return nil
}
