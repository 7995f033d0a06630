package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/gps"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/traffic"
	"repro/internal/trajgen"
	"repro/internal/wal"
)

// What exists in the city is a fixture, like the key space of a
// key-value benchmark: the road network, the trained model, the
// popular origin–destination pairs, the corridors of the query log
// the paths asked about and the fleet's GPS traces are generated from
// fixtureSeed on every run. -seed decides the order of the requests,
// which log entries the reads and batches draw, and how the traces are
// dealt into ingest batches. Generating the city from -seed moves
// throughput by ±12 % from one seed to the next, and drawing the paths
// or departures from it still moves p50 by 6 %, allocation counts by up
// to 8 % and p95 by 10–20 % — more than host noise does, and more than
// any regression bound worth having.
const (
	datasetPreset = "test"
	datasetTrips  = 8000
	fixtureSeed   = 1
)

// Lap sizes are constants sized for this host class (2 vCPUs) so that
// one lap takes roughly nominalLapSeconds; they are not time-based, so
// a lap is the same work on every machine and every commit, and
// -seconds S means S ÷ nominalLapSeconds laps. A best-lap estimate
// rests on at least minLaps laps.
const (
	nominalLapSeconds = 0.5
	minLaps           = 12
)

const (
	coldLapOps      = 41 * 35 // every cardinality 20..60 equally often
	hotLapOps       = 12000
	hotLogSize      = 2000
	hotTrunkCard    = 24
	batchEntries    = 16
	routeHopLo      = 5 // free-flow hop distance classes of the route mix
	routeHopHi      = 12
	routePerClass   = 40
	routeTailRounds = 5
	topK            = 4
	budgetFactor    = 1.6
	shardRegions    = 3
	shardLapOps     = 300
	ingestBatches   = 4
	ingestBatch     = 32
	ingestReads     = 500
	ingestRefill    = 1000
	cacheCapacity   = 4096 // pathcostd's -cache and -memo defaults
)

var departs = []float64{8 * 3600, 17 * 3600}

type opKind uint8

const (
	opDist opKind = iota
	opBatch
	opRoute
	opTopK
	opIngest
	opPublish
	numOpKinds
)

var (
	opNames = [numOpKinds]string{"distribution", "batch", "route", "topk", "ingest", "publish"}
	opURLs  = [numOpKinds]string{"/v1/distribution", "/v1/batch", "/v1/route", "/v1/topk", "/v1/ingest", ""}
)

// op is one operation of a lap: the request bytes the program sees,
// and the decoded form the oracle and the direct layer calls use.
type op struct {
	kind  opKind
	body  []byte
	dist  api.DistributionRequest   // opDist
	batch []api.DistributionRequest // opBatch: every entry is a distribution
	route api.TopKRequest           // opRoute (K = 0) and opTopK
	raw   []*gps.Trajectory         // opIngest
}

// instance is one workload set up and ready to run laps.
type instance struct {
	ops []op
	// front is the handler the client drives. sys is the System behind
	// it: publish ops and the traced run's direct layer calls use it.
	// beginLap, when set, restores both before every lap (untimed), so
	// that lap i starts from exactly the state lap 0 started from.
	front    http.Handler
	sys      *pathcost.System
	beginLap func() error
	endLap   func() error
	// oracle returns a fresh reuse-off system holding the model the
	// first op of a lap sees; the answer check replays the lap on it.
	oracle func() (*pathcost.System, error)

	// Sharded topology (sharded_cross only). trained is the unsplit
	// system, kept referenced as it would be in a process that trained
	// and split the model itself: without its trajectories the live
	// heap (1.6 MB) sits below the Go runtime's 4 MB minimum heap, a
	// collection runs for every 2.4 MB allocated, and the workload
	// measures GC pacing — 1 MB more live data anywhere made it 30 %
	// faster.
	trained    *pathcost.System
	transport  *memTransport
	part       *shard.Partition
	shards     []*pathcost.System
	crossShare float64
}

type workload struct {
	name  string
	why   string
	build func(seed int64, workdir string) (*instance, error)
}

var workloads = []workload{
	{"cold_chain", "distinct long paths with every reuse layer off: decomposition and the convolution kernel do nearly all the work", buildColdChain},
	{"hot_prefix", "prefix-heavy log that fits the caches, daemon defaults: api, server and cache probes do the work and the kernel almost none", buildHotPrefix},
	{"route_topk", "budget routing and top-k: the DFS over incremental path states dominates, with a heavy tail that sets p95", buildRouteTopK},
	{"sharded_cross", "paths crossing region cuts through a coordinator and three shards: relay waves, state encode/decode and envelopes dominate; one P, so what parallel shard legs would save is out of scope", buildShardedCross},
	{"ingest_mixed", "writes beside reads: ingest batches, a WAL, an epoch publish and the refill of the epoch-keyed caches, restored every lap; one P, so what the matcher pool would save is out of scope", buildIngestMixed},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func dataset() (*pathcost.System, error) {
	return pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: datasetPreset, Trips: datasetTrips, Seed: fixtureSeed,
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request shapes are plain structs; cannot fail
	}
	return b
}

func distOp(r api.DistributionRequest) op {
	return op{kind: opDist, body: mustJSON(r), dist: r}
}

func batchOp(entries []api.DistributionRequest) op {
	br := api.BatchRequest{Queries: make([]api.BatchQuery, len(entries))}
	for i, e := range entries {
		br.Queries[i] = api.BatchQuery{Path: e.Path, Depart: e.Depart, Method: e.Method, Budget: e.Budget}
	}
	return op{kind: opBatch, body: mustJSON(br), batch: entries}
}

func shuffleOps(ops []op, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// sameSystem is the oracle of the read-only workloads: the oracle
// evaluates on the served model through core, below every reuse layer.
func sameSystem(sys *pathcost.System) func() (*pathcost.System, error) {
	return func() (*pathcost.System, error) { return sys, nil }
}

// --- cold_chain --------------------------------------------------------

func buildColdChain(seed int64, _ string) (*instance, error) {
	sys, err := dataset()
	if err != nil {
		return nil, err
	}
	// The paths, their methods and departures are a fixture; the seed
	// picks the order they are asked in.
	pop := rand.New(rand.NewSource(fixtureSeed))
	methods := [5]string{"OD", "OD", "OD", "HP", "LB"}
	seen := make(map[string]bool, coldLapOps)
	ops := make([]op, 0, coldLapOps)
	for i := 0; len(ops) < coldLapOps; i++ {
		if i > 20*coldLapOps {
			return nil, fmt.Errorf("cold_chain: could not sample %d distinct paths", coldLapOps)
		}
		n := len(ops)
		p, err := sys.RandomQueryPath(20+n%41, pop.Intn)
		if err != nil {
			return nil, err
		}
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		ops = append(ops, distOp(api.DistributionRequest{
			Path: api.EdgeIDs(p), Depart: departs[pop.Intn(len(departs))], Method: methods[n%5],
		}))
	}
	shuffleOps(ops, seed)
	return &instance{
		ops:    ops,
		front:  server.New(sys, server.Config{}).Handler(),
		sys:    sys,
		oracle: sameSystem(sys),
	}, nil
}

// --- hot_prefix --------------------------------------------------------

// enableDaemonDefaults turns on the reuse layers pathcostd runs with.
// Worker pools (here and for ingest) are sized from GOMAXPROCS, which
// is what pathcostd's NumCPU defaults come to on the Ps a run has.
func enableDaemonDefaults(sys *pathcost.System) {
	sys.EnableQueryCache(cacheCapacity)
	sys.EnableConvMemo(cacheCapacity)
	sys.EnableBatchPlanner(runtime.GOMAXPROCS(0))
}

// prefixReads draws n reads from a prefix-heavy query log: nine single
// distributions, then one batch of 16 entries.
func prefixReads(log []pathcost.WorkloadQuery, n int, rnd *rand.Rand) []op {
	pick := func() api.DistributionRequest {
		q := log[rnd.Intn(len(log))]
		return api.DistributionRequest{Path: api.EdgeIDs(q.Path), Depart: q.Depart}
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if i%10 != 9 {
			ops = append(ops, distOp(pick()))
			continue
		}
		entries := make([]api.DistributionRequest, batchEntries)
		for j := range entries {
			entries[j] = pick()
		}
		ops = append(ops, batchOp(entries))
	}
	return ops
}

func buildHotPrefix(seed int64, _ string) (*instance, error) {
	sys, err := dataset()
	if err != nil {
		return nil, err
	}
	enableDaemonDefaults(sys)
	log, err := sys.SyntheticWorkload(hotLogSize, hotTrunkCard, fixtureSeed, departs)
	if err != nil {
		return nil, err
	}
	return &instance{
		ops:    prefixReads(log, hotLapOps, rand.New(rand.NewSource(seed))),
		front:  server.New(sys, server.Config{}).Handler(),
		sys:    sys,
		oracle: sameSystem(sys),
	}, nil
}

// --- route_topk --------------------------------------------------------

func buildRouteTopK(seed int64, _ string) (*instance, error) {
	sys, err := dataset()
	if err != nil {
		return nil, err
	}
	sys.EnableConvMemo(cacheCapacity)
	// Search cost grows steeply and with a heavy tail in the distance
	// between the endpoints, so the popular pairs are a fixture holding
	// the same number of pairs from each free-flow hop-distance class;
	// the seed picks the order.
	pop := rand.New(rand.NewSource(fixtureSeed))
	rnd := rand.New(rand.NewSource(seed))
	classes := routeHopHi - routeHopLo + 1
	byClass := make([][]op, classes)
	nv := sys.Graph.NumVertices()
	for tries, filled := 0, 0; filled < classes*routePerClass; tries++ {
		if tries > 200*classes*routePerClass {
			return nil, fmt.Errorf("route_topk: could not fill the hop-distance classes")
		}
		src, dst := pop.Intn(nv), pop.Intn(nv)
		if src == dst {
			continue
		}
		p, ff, err := sys.Router().FastestPath(pathcost.VertexID(src), pathcost.VertexID(dst))
		if err != nil {
			continue
		}
		c := len(p) - routeHopLo
		if c < 0 || c >= classes || len(byClass[c]) == routePerClass {
			continue
		}
		req := api.TopKRequest{RouteRequest: api.RouteRequest{
			Source: int64(src), Dest: int64(dst),
			Depart: departs[pop.Intn(len(departs))], Budget: budgetFactor * ff,
		}}
		// 70 % route, 30 % top-k, in every class.
		if len(byClass[c])%10 < 7 {
			byClass[c] = append(byClass[c], op{kind: opRoute, body: mustJSON(req.RouteRequest), route: req})
		} else {
			req.K = topK
			byClass[c] = append(byClass[c], op{kind: opTopK, body: mustJSON(req), route: req})
		}
		filled++
	}
	// The classes take turns and the seed orders the requests within
	// each class — except the last routeTailRounds rounds, which keep
	// the fixture's order: the memo's 4096 states at the end of a lap
	// are those of the last thirty-odd requests, and they are most of
	// heap_live_mb, which would otherwise move ±20 % with the order.
	ops := make([]op, 0, classes*routePerClass)
	for _, c := range byClass {
		c = c[:routePerClass-routeTailRounds]
		rnd.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	for i := 0; i < routePerClass; i++ {
		for _, c := range byClass {
			ops = append(ops, c[i])
		}
	}
	return &instance{
		ops:    ops,
		front:  server.New(sys, server.Config{}).Handler(),
		sys:    sys,
		oracle: sameSystem(sys),
	}, nil
}

// --- sharded_cross -----------------------------------------------------

func buildShardedCross(seed int64, _ string) (*instance, error) {
	sys, err := dataset()
	if err != nil {
		return nil, err
	}
	part, err := shard.NewPartition(sys.Graph, shardRegions, sys.Params)
	if err != nil {
		return nil, err
	}
	split, err := shard.SplitModel(sys, part)
	if err != nil {
		return nil, err
	}
	// The shards run with every reuse layer off, like cold_chain: the
	// kernel work per segment is then the same every lap, and what is
	// left of a request is the sharded tier's own cost.
	tr := &memTransport{hosts: map[string]http.Handler{}}
	cfg := shard.Config{
		Transport:     tr,
		ProbeInterval: -1,
		// In-memory legs answer in microseconds; a hedge firing during
		// a host stall would add a leg and make allocation counts
		// differ between identical runs.
		HedgeAfter: time.Hour,
	}
	for r, ss := range split.Shards {
		host := fmt.Sprintf("shard%d", r)
		tr.hosts[host] = server.New(ss, server.Config{}).Handler()
		cfg.Shards = append(cfg.Shards, "http://"+host)
	}
	coord, err := shard.New(sys.Graph, part, cfg)
	if err != nil {
		return nil, err
	}
	// The paths (how many region cuts one crosses decides its relay
	// legs), methods and departures are a fixture; the seed picks the
	// order.
	pop := rand.New(rand.NewSource(fixtureSeed))
	methods := [5]string{"OD", "OD", "OD", "HP", "LB"}
	ops := make([]op, 0, shardLapOps)
	crossing := 0
	for i := 0; i < shardLapOps; i++ {
		p, err := sys.RandomQueryPath(12+i%29, pop.Intn)
		if err != nil {
			return nil, err
		}
		if len(part.SegmentPath(sys.Graph, p)) > 1 {
			crossing++
		}
		ops = append(ops, distOp(api.DistributionRequest{
			Path: api.EdgeIDs(p), Depart: departs[pop.Intn(len(departs))], Method: methods[i%5],
		}))
	}
	shuffleOps(ops, seed)
	share := float64(crossing) / float64(len(ops))
	if share < 0.7 {
		return nil, fmt.Errorf("sharded_cross: only %.0f%% of the paths cross a region cut", 100*share)
	}
	return &instance{
		ops:        ops,
		front:      coord.Handler(),
		sys:        split.Union,
		oracle:     sameSystem(split.Union),
		trained:    sys,
		transport:  tr,
		part:       part,
		shards:     split.Shards,
		crossShare: share,
	}, nil
}

// --- ingest_mixed ------------------------------------------------------

// ingestBody is the /v1/ingest request shape (internal/server keeps
// its own copy unexported).
type ingestBody struct {
	Trajectories []ingestTraj `json:"trajectories"`
}

type ingestTraj struct {
	ID     int64         `json:"id"`
	Points []ingestPoint `json:"points"`
}

type ingestPoint struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	T   float64 `json:"t"`
}

func ingestOp(raw []*gps.Trajectory) op {
	var b ingestBody
	for _, tr := range raw {
		t := ingestTraj{ID: tr.ID, Points: make([]ingestPoint, len(tr.Records))}
		for i, rc := range tr.Records {
			t.Points[i] = ingestPoint{Lat: rc.Pt.Lat, Lon: rc.Pt.Lon, T: rc.Time}
		}
		b.Trajectories = append(b.Trajectories, t)
	}
	return op{kind: opIngest, body: mustJSON(b), raw: raw}
}

func buildIngestMixed(seed int64, workdir string) (*instance, error) {
	base, err := dataset()
	if err != nil {
		return nil, err
	}
	var model bytes.Buffer
	if err := base.SaveModel(&model); err != nil {
		return nil, err
	}
	log, err := base.SyntheticWorkload(hotLogSize, hotTrunkCard, fixtureSeed, departs)
	if err != nil {
		return nil, err
	}
	raw := trajgen.New(base.Graph, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: fixtureSeed + 1, NumTrips: ingestBatches * ingestBatch, EmitGPS: true,
	}).Generate().Raw
	if len(raw) != ingestBatches*ingestBatch {
		return nil, fmt.Errorf("ingest_mixed: generated %d traces, want %d", len(raw), ingestBatches*ingestBatch)
	}
	for _, tr := range raw {
		tr.ID += 1 << 32 // clear of the training collection's IDs
	}
	// The seed deals the fleet's traces into batches and draws the reads.
	rnd := rand.New(rand.NewSource(seed))
	rnd.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	var ops []op
	for b := 0; b < ingestBatches; b++ {
		ops = append(ops, ingestOp(raw[b*ingestBatch:(b+1)*ingestBatch]))
		ops = append(ops, prefixReads(log, ingestReads, rnd)...)
	}
	ops = append(ops, op{kind: opPublish})
	ops = append(ops, prefixReads(log, ingestRefill, rnd)...)

	restore := func() (*pathcost.System, error) {
		return pathcost.LoadSystem(base.Graph, base.Data(), bytes.NewReader(model.Bytes()))
	}
	inst := &instance{ops: ops, oracle: restore}
	var (
		wlog   *wal.Log
		walDir string
		lapNo  int
	)
	inst.beginLap = func() error {
		sys, err := restore()
		if err != nil {
			return err
		}
		enableDaemonDefaults(sys)
		walDir = filepath.Join(workdir, fmt.Sprintf("wal-%d", lapNo))
		lapNo++
		// Sync off is the daemon's default (durability target: process
		// crashes); the same on every commit measured.
		if wlog, err = wal.Open(walDir, wal.Options{}); err != nil {
			return err
		}
		sys.AttachWAL(wlog)
		inst.sys = sys
		inst.front = server.New(sys, server.Config{
			EnableIngest: true, IngestWorkers: runtime.GOMAXPROCS(0),
		}).Handler()
		return nil
	}
	inst.endLap = func() error {
		err := wlog.Close()
		if rerr := os.RemoveAll(walDir); err == nil {
			err = rerr
		}
		return err
	}
	return inst, nil
}
