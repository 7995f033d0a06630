// Package pathcost is the public API of the reproduction of Dai,
// Yang, Guo, Jensen, Hu: "Path Cost Distribution Estimation Using
// Trajectory Data" (PVLDB 10(3), 2016).
//
// It estimates the full probability distribution — not just the mean —
// of the travel cost of any road-network path at a given departure
// time, from historical trajectories. The core idea is the paper's
// hybrid graph: weights are joint cost distributions attached to
// *paths* (multi-dimensional histograms capturing inter-edge
// dependence), and a query is answered by selecting the coarsest
// decomposition of the query path into weighted sub-paths and
// combining their joints via decomposable-model factorization.
//
// Typical use:
//
//	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
//		Preset: "small", Trips: 20000, Seed: 1,
//	})
//	res, err := sys.PathDistribution(path, 8*3600, pathcost.OD)
//	fmt.Println("P(≤ 10 min) =", res.Dist.ProbWithin(600))
//
// Real deployments would replace Synthesize with NewSystem over a road
// network and map-matched trajectories (see internal/mapmatch for the
// HMM matcher that turns raw GPS into such trajectories).
package pathcost

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/hist"
	"repro/internal/netgen"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/trajgen"
	"repro/internal/wal"
)

// Re-exported types so callers need only this package for common use.
type (
	// Graph is a directed road network.
	Graph = graph.Graph
	// Path is a sequence of adjacent edge IDs.
	Path = graph.Path
	// EdgeID identifies a road segment.
	EdgeID = graph.EdgeID
	// VertexID identifies an intersection.
	VertexID = graph.VertexID
	// Histogram is a one-dimensional cost distribution.
	Histogram = hist.Histogram
	// Params are the hybrid-graph parameters (α, β, MaxRank, ...).
	Params = core.Params
	// Method selects an estimation strategy.
	Method = core.Method
	// Collection is an indexed set of map-matched trajectories.
	Collection = gps.Collection
	// Matched is one map-matched trajectory observation.
	Matched = gps.Matched
	// QueryResult is a cost-distribution query outcome.
	QueryResult = core.QueryResult
	// RouteResult is a stochastic routing outcome.
	RouteResult = routing.Result
	// CacheStats reports query-cache effectiveness (see EnableQueryCache).
	CacheStats = cache.Stats
	// WorkloadQuery is one query-log observation (see
	// SyntheticWorkload).
	WorkloadQuery = core.WorkloadQuery
	// QueryOptions selects method, rank cap and seed for one query.
	QueryOptions = core.QueryOptions
	// DensePath is a query-path candidate backed by many trajectories
	// (see DensePaths).
	DensePath = core.DensePath
)

// Estimation methods (Section 5.2.2 of the paper).
const (
	// OD is the paper's proposal: the optimal (coarsest) decomposition.
	OD = core.MethodOD
	// RD uses a random decomposition.
	RD = core.MethodRD
	// HP uses pairwise joint distributions only.
	HP = core.MethodHP
	// LB is the legacy independent-edge convolution baseline.
	LB = core.MethodLB
)

// DomainEmissions switches the cost domain from travel time in seconds
// (the default) to GHG emissions in grams. Set Params.Domain before
// NewSystem/Synthesize.
const DomainEmissions = core.DomainEmissions

// DefaultParams returns the paper's defaults (α = 30 min, β = 30).
func DefaultParams() Params { return core.DefaultParams() }

// ModelEpoch is one published model snapshot: a hybrid graph, the
// trajectory collection backing it (nil when the model was loaded
// without data), and a router evaluating against exactly this model.
// The model content is immutable after publish; queries that loaded an
// epoch keep a consistent view of it even while the next epoch is
// being built and published. The epoch's memo is swappable via
// EnableConvMemo.
type ModelEpoch struct {
	// Seq is the monotonically increasing epoch sequence number; a
	// first-level query-cache entry carries it, so that one answered
	// against an older epoch never answers a query on this one.
	Seq    uint64
	Hybrid *core.HybridGraph
	Data   *Collection
	Router *routing.Router

	// memo is the epoch's own convolution memo (nil when none is
	// enabled), read by distribution queries only; every epoch starts
	// an empty one (ConvMemo.Fresh). Writers hold pubMu or have not
	// published the epoch yet.
	memo atomic.Pointer[core.ConvMemo]
}

// System bundles a road network, the epoch-versioned trained model
// (hybrid graph, trajectory collection, router) and the serving
// machinery around it.
//
// A System is safe for concurrent use: any number of goroutines may
// run PathDistribution, Route, TopKRoutes, GroundTruth and
// QueryCacheStats simultaneously, and EnableQueryCache, EnableConvMemo
// and StageTrajectories/PublishEpoch may be called while queries are
// in flight. Each query snapshots the current epoch once (one atomic
// load) and runs entirely against it; publishing a new epoch swaps the
// pointer and never blocks in-flight queries. Graph and Params are
// immutable after construction.
type System struct {
	Graph  *Graph
	Params Params

	// epoch is the currently served model snapshot; see ModelEpoch.
	epoch atomic.Pointer[ModelEpoch]

	// qcache, when non-nil, holds PathDistribution answers at two levels
	// (see EnableQueryCache). It is an atomic pointer so
	// EnableQueryCache can install, resize or remove the cache while
	// queries are running.
	qcache atomic.Pointer[queryCache]

	// pubMu serializes epoch publishes and attachment changes; it is
	// never taken by queries.
	pubMu sync.Mutex
	// stageMu guards the staged delta buffer (trajectories accepted by
	// StageTrajectories and not yet published) and the WAL bookkeeping
	// that shadows it: wlog (when attached), walHigh (the WAL sequence
	// covering everything staged so far) and walErrs. Appending to
	// the WAL and to staged under one critical section keeps their
	// orders identical, which is what makes replay equivalent to the
	// uninterrupted staging history.
	stageMu sync.Mutex
	staged  []*Matched
	wlog    *wal.Log
	walHigh uint64
	walErrs WALErrors
	// checkpointFn, when non-nil, persists the freshly published model;
	// PublishEpoch truncates the WAL only after it succeeds. Without a
	// checkpointer the WAL retains every record, and recovery replays
	// them all against the base model — exact-mode builds are
	// batching-invariant, so both configurations recover the same
	// bytes. Set via SetWALCheckpoint while holding no locks.
	checkpointFn func() error
	// decayBits holds math.Float64bits of the decay halflife in
	// seconds (0 = exact mode); see SetDecayHalflife.
	decayBits atomic.Uint64
	// lastPublish is read/written only while holding pubMu.
	lastPublish time.Time
	// statMu guards the publish bookkeeping below (kept separate from
	// pubMu so EpochStats never waits behind an in-progress build).
	statMu      sync.Mutex
	publishes   uint64
	stagedTotal uint64
	lastDelta   core.EpochDelta
	lastBuild   time.Duration
	lastFactor  float64

	// buildProbe, when non-nil, runs inside PublishEpoch after the
	// staged batch is drained and may fail the build. Test seam for
	// the restore-ordering guarantee; never set it outside tests.
	buildProbe func() error
}

// newSystem wraps a trained hybrid as epoch 1 of a fresh System.
func newSystem(g *Graph, data *Collection, h *core.HybridGraph, params Params) *System {
	s := &System{Graph: g, Params: params, lastPublish: time.Now()}
	s.epoch.Store(&ModelEpoch{Seq: 1, Hybrid: h, Data: data, Router: routing.New(h)})
	return s
}

// NewSystem trains a hybrid graph from an existing network and
// trajectory collection — the entry point for real data.
func NewSystem(g *Graph, data *Collection, params Params) (*System, error) {
	h, err := core.Build(g, data, params)
	if err != nil {
		return nil, err
	}
	return newSystem(g, data, h, params), nil
}

// Hybrid returns the current epoch's trained hybrid graph.
func (s *System) Hybrid() *core.HybridGraph { return s.epoch.Load().Hybrid }

// Router returns the current epoch's stochastic router.
func (s *System) Router() *routing.Router { return s.epoch.Load().Router }

// Data returns the current epoch's trajectory collection (nil when
// the model was loaded without data).
func (s *System) Data() *Collection { return s.epoch.Load().Data }

// SynthesizeConfig configures the built-in city simulator, the
// substitute for the paper's Aalborg/Beijing fleets.
type SynthesizeConfig struct {
	// Preset selects the network size: "test", "small", "aalborg",
	// "beijing" (default "small").
	Preset string
	// Trips is the number of simulated trajectories (default 20000).
	Trips int
	// Seed makes the whole workload reproducible.
	Seed int64
	// Params for training; the zero value means DefaultParams.
	Params Params
	// WithEmissions also simulates GHG costs per edge.
	WithEmissions bool
	// Traffic overrides the traffic model calibration.
	Traffic traffic.Config
}

// Synthesize generates a city network and trajectory workload, then
// trains the hybrid graph on it.
func Synthesize(cfg SynthesizeConfig) (*System, error) {
	if cfg.Preset == "" {
		cfg.Preset = "small"
	}
	if cfg.Trips == 0 {
		cfg.Trips = 20000
	}
	if cfg.Params.AlphaMinutes == 0 {
		cfg.Params = DefaultParams()
	}
	g := netgen.Generate(netgen.PresetConfig(netgen.Preset(cfg.Preset)))
	gen := trajgen.New(g, traffic.NewModel(cfg.Traffic), trajgen.Config{
		Seed:          cfg.Seed,
		NumTrips:      cfg.Trips,
		WithEmissions: cfg.WithEmissions,
	})
	res := gen.Generate()
	return NewSystem(g, res.Collection, cfg.Params)
}

// EnableQueryCache puts an exact answer cache in front of
// PathDistribution, at two levels of at most capacity entries each.
// The first is keyed by the query as asked — path, the exact departure
// and the method — and an entry answers only the epoch it was answered
// against, so a repeated query is one probe. On a miss the query's
// decomposition is chosen (Section 4.1), and the second level is keyed
// by what the answer is a function of: the path, the method, the rank
// cap, and the version id and position of every variable the
// decomposition picked (core.Variable.ID). The departure
// reaches an estimate only through those picks (Eq. 3), and a variable
// never changes under its id, so the key needs no epoch: a departure
// that picks the same variables shares the answer, and after a publish
// every answer whose variables the publish did not rebuild is still
// served. Only a miss at both levels computes, and every answer is the
// one PathDistribution computes without a cache, byte for byte.
// Cached *QueryResult values are shared between callers and must be
// treated as read-only. capacity ≤ 0 disables the cache.
//
// EnableQueryCache is safe to call while queries are in flight: the
// cache pointer is swapped atomically, in-flight queries finish
// against whichever cache they started with, and calling it again
// (any capacity) starts from an empty cache with fresh counters.
//
// The cache fronts distribution queries only; Route and TopKRoutes
// keep their own optimization (incremental chain-evaluation state
// along the DFS) and do not consult it.
func (s *System) EnableQueryCache(capacity int) {
	if capacity <= 0 {
		s.qcache.Store(nil)
		return
	}
	s.qcache.Store(&queryCache{
		exact:  cache.NewLRU[exactAnswer](capacity),
		decomp: cache.NewLRU[*QueryResult](capacity),
	})
}

// queryCache is the two-level answer cache (see EnableQueryCache). An
// answer found at the second level is stored at the first as the same
// *QueryResult.
type queryCache struct {
	exact  *cache.LRU[exactAnswer]
	decomp *cache.LRU[*QueryResult]
	// stale counts first-level entries found answered against an
	// earlier epoch, which the query then looks up at the second level.
	stale atomic.Uint64
}

// exactAnswer is a first-level entry: an answer and the epoch it was
// answered against. A publish can change the variables a departure
// picks, so an entry serves only its own epoch; the next epoch's
// answer to the same query overwrites it in place.
type exactAnswer struct {
	seq uint64
	res *QueryResult
}

// QueryCacheStats snapshots the query cache's counters; ok is false
// when no cache is enabled. Hits counts the queries answered at either
// level, Misses the rest, Evictions both levels' and Entries the
// distinct answers held.
func (s *System) QueryCacheStats() (st CacheStats, ok bool) {
	c := s.qcache.Load()
	if c == nil {
		return CacheStats{}, false
	}
	// Read in the order a query counts in reverse, so that no
	// difference below goes negative under concurrent queries.
	d := c.decomp.Stats()
	stale := c.stale.Load()
	x := c.exact.Stats()
	d.Hits, d.Misses = x.Hits-stale+d.Hits, x.Misses+stale-d.Hits
	d.Evictions += x.Evictions
	return d, true
}

// EnableConvMemo installs the incremental sub-path convolution engine:
// a memo of at most capacity prefix chain states, keyed by (path
// prefix, exact departure time, method, rank cap), that distribution
// queries read and feed — PathDistribution, PlanDistributions and the
// entries of a /v1/batch alike. Evaluating a path then resumes from its
// longest already-seen prefix, one convolution per new edge. Routing
// never reads it: a search resumes each expansion from its parent's
// state.
//
// The memo is exact: results are byte-identical to unmemoized
// evaluation, because the keys carry the exact departure time and the
// chain evaluator applies exactly the operations the one-shot
// evaluator applies. Methods without an incremental evaluator (RD)
// bypass the memo.
//
// capacity ≤ 0 removes the memo. Safe to call while queries are in
// flight: the pointer swaps atomically and running queries finish
// against whichever memo they started with. Calling it again starts
// from an empty memo with fresh counters.
func (s *System) EnableConvMemo(capacity int) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	ep := s.epoch.Load()
	var view *core.ConvMemo
	if capacity > 0 {
		view = core.NewConvMemo(capacity)
	}
	ep.memo.Store(view)
}

// ConvMemoStats snapshots the convolution memo's hit/miss/eviction
// counters; ok is false when no memo is enabled.
func (s *System) ConvMemoStats() (st CacheStats, ok bool) {
	m := s.epoch.Load().memo.Load()
	if m == nil {
		return CacheStats{}, false
	}
	return m.Stats(), true
}

// PlanQuery is one entry of a PlanDistributions batch.
type PlanQuery struct {
	Path   Path
	Depart float64
	Opt    QueryOptions
}

// PlanResult is one entry's outcome. Exactly one of Res and Err is set.
type PlanResult struct {
	Res *QueryResult
	Err error
}

// PlanDistributions answers a batch of distribution queries in order,
// each entry as the single query it is: results are positional, and an
// entry's failure is its own. An entry with only a method goes through
// PathDistributionGated — the query cache and the gate charged per
// computed entry. One with a rank cap or a seed, which the
// query cache's key does not carry, is computed with its full options,
// charged to the gate and cached nowhere. Overlapping entries share
// their prefixes through the memo (EnableConvMemo). ctx bounds every
// entry (nil means unbounded); acquire and release follow the
// PathDistributionGated contract. The PlanStats result is always zero.
func (s *System) PlanDistributions(ctx context.Context, queries []PlanQuery,
	acquire func() bool, release func()) ([]PlanResult, PlanStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]PlanResult, len(queries))
	for i, q := range queries {
		r := &out[i]
		if q.Opt == (QueryOptions{Method: q.Opt.Method}) {
			r.Res, r.Err = s.PathDistributionGated(ctx, q.Path, q.Depart, q.Opt.Method, acquire, release)
		} else {
			r.Res, r.Err = s.computeGated(ctx, s.epoch.Load(), q.Path, q.Depart, q.Opt, nil, acquire, release)
		}
	}
	return out, PlanStats{}
}

// SyntheticWorkload samples a prefix-heavy query log: trunk paths of
// the given cardinality found by random walk, each contributing its
// prefixes of random depth ≥ 2, departing at times drawn from
// departs. It stands in for a real query log: the shape mirrors what a
// router exploring candidates from a few sources, or a fleet of
// commuters on shared corridors, produces.
func (s *System) SyntheticWorkload(n, card int, seed int64, departs []float64) ([]WorkloadQuery, error) {
	if n < 1 {
		return nil, fmt.Errorf("pathcost: workload size %d must be ≥ 1", n)
	}
	if card < 2 {
		card = 2
	}
	if len(departs) == 0 {
		departs = []float64{8 * 3600}
	}
	rnd := rand.New(rand.NewSource(seed))
	trunks := n / 16
	if trunks < 1 {
		trunks = 1
	}
	pool := make([]Path, 0, trunks)
	for len(pool) < trunks {
		p, err := s.RandomQueryPath(card, rnd.Intn)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	out := make([]WorkloadQuery, n)
	for i := range out {
		trunk := pool[rnd.Intn(len(pool))]
		out[i] = WorkloadQuery{
			Path:   trunk[:2+rnd.Intn(len(trunk)-1)],
			Depart: departs[rnd.Intn(len(departs))],
		}
	}
	return out, nil
}

// exactKey appends the first-level cache identity of a distribution
// query to b: the path's canonical signature, the departure's bits and
// the method.
func exactKey(b []byte, p Path, depart float64, m Method) []byte {
	b = p.AppendKey(b)
	b = binary.LittleEndian.AppendUint64(append(b, '@'), math.Float64bits(depart))
	return append(append(b, '/'), m...)
}

// decompKey appends the second-level cache identity of an answer to b:
// the path, the method, the rank cap and the decomposition's factors,
// each as its position and its variable's id, in varints.
func decompKey(b []byte, p Path, opt QueryOptions, de *core.Decomposition) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, e := range p {
		b = binary.AppendUvarint(b, uint64(e))
	}
	b = append(binary.AppendUvarint(b, uint64(len(opt.Method))), opt.Method...)
	b = binary.AppendVarint(b, int64(opt.RankCap))
	for i, v := range de.Vars {
		b = binary.AppendUvarint(b, uint64(de.Pos[i]))
		b = binary.AppendUvarint(b, v.ID())
	}
	return b
}

// queryKeyStackBytes sizes the stack buffers a query's keys are
// written into, so that a hit allocates no key: room for 80 edges of
// 5-digit ids. A longer key spills to the heap and stays correct.
const queryKeyStackBytes = 512

// decompPool recycles the decomposition a first-level miss chooses to
// probe the second level with; evaluation copies what it keeps.
var decompPool = sync.Pool{New: func() any { return new(core.Decomposition) }}

// PathDistribution estimates the cost distribution of a path at the
// given departure time (seconds; time-of-day or absolute). When a
// query cache is enabled (EnableQueryCache), an answer the cache holds
// is served from memory; the returned result is then shared between
// callers and must not be mutated. Like PathDistributionGated it reads
// p and does not keep it.
func (s *System) PathDistribution(p Path, depart float64, m Method) (*QueryResult, error) {
	return s.PathDistributionGated(context.Background(), p, depart, m, nil, nil)
}

// ErrGateRejected is returned by PathDistributionGated when the
// caller's acquire hook refuses the computation slot.
var ErrGateRejected = errors.New("pathcost: computation gate rejected the query")

// PathDistributionGated is PathDistribution with a concurrency gate
// charged only for real work: a query-cache hit, at either level,
// never touches the gate, and a miss runs acquire immediately before
// its one underlying CostDistribution computation and release after
// it, so a bound implemented with it tracks CPU-bound computations
// rather than requests. acquire returning false aborts the query with
// ErrGateRejected and caches nothing. Either hook may be nil: a nil
// acquire disables gating entirely, a nil release just skips the
// post-computation call. Concurrent misses on one key each compute
// (charged one acquire each) and store the same answer.
//
// ctx bounds the computation: the evaluation is deadline-checked per
// chain step (see CostDistributionCtx), and an expired budget stops it
// and fills no cache entry. A nil ctx means context.Background, which
// disables every deadline check.
//
// p is read during the call and not kept: a miss evaluates a copy,
// because what the evaluation derives (the memo's states, the cached
// result's decomposition) holds its path. A server may therefore pass
// a path in storage it recycles once the answer is written, and a hit
// allocates nothing — but an answer's first exact-level hit, which
// builds the answer's digit record (QueryResult.Decimals) in one
// allocation.
func (s *System) PathDistributionGated(ctx context.Context, p Path, depart float64, m Method,
	acquire func() bool, release func()) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if m == "" {
		// Normalize before keying: core defaults "" to OD, so both
		// spellings are one logical query and must share one cache entry.
		m = OD
	}
	// One epoch snapshot serves the whole query: the answer, and the
	// cache entries it fills, belong to this epoch even if a publish
	// lands mid-query.
	ep := s.epoch.Load()
	opt := QueryOptions{Method: m}
	c := s.qcache.Load()
	if c == nil {
		// Uncached queries stay independent on purpose: each caller
		// owns its result and may post-process it freely.
		return s.computeGated(ctx, ep, slices.Clone(p), depart, opt, nil, acquire, release)
	}
	var buf [queryKeyStackBytes]byte
	key := exactKey(buf[:0], p, depart, m)
	if a, ok := c.exact.GetBytes(key); ok {
		if a.seq == ep.Seq {
			// From its first exact hit on, an answer keeps its
			// numbers' digits (QueryResult.Decimals), so a server
			// writes every later hit without formatting a float.
			a.res.FillDecimals()
			return a.res, nil
		}
		c.stale.Add(1)
	}
	dst := decompPool.Get().(*core.Decomposition)
	defer func() {
		clear(dst.Vars) // hold no variable of a retired epoch
		decompPool.Put(dst)
	}()
	de, err := ep.Hybrid.Decompose(p, depart, opt, dst)
	if err != nil {
		return nil, err
	}
	var dbuf [queryKeyStackBytes]byte
	dkey := decompKey(dbuf[:0], p, opt, de)
	res, ok := c.decomp.GetBytes(dkey)
	if !ok {
		if res, err = s.computeGated(ctx, ep, slices.Clone(p), depart, opt, de, acquire, release); err != nil {
			return nil, err
		}
		c.decomp.PutBytes(dkey, res)
	}
	c.exact.PutBytes(key, exactAnswer{ep.Seq, res})
	return res, nil
}

// computeGated runs one underlying estimation (the expensive step the
// query cache exists to avoid repeating) against one epoch snapshot,
// charged to the caller's gate: acquire runs immediately before it and
// release after, and acquire returning false fails the query with
// ErrGateRejected. Either hook may be nil. de is p's decomposition
// when the caller has chosen it (see core's CostDistributionCtx), nil
// otherwise. Evaluation goes through the epoch's memo: it
// resumes from the deepest prefix of p the memo holds, and the answer
// is byte-identical with or without one.
func (s *System) computeGated(ctx context.Context, ep *ModelEpoch, p Path, depart float64, opt QueryOptions,
	de *core.Decomposition, acquire func() bool, release func()) (*QueryResult, error) {
	if acquire != nil {
		if !acquire() {
			return nil, ErrGateRejected
		}
		if release != nil {
			defer release()
		}
	}
	// ctx bounds the evaluation itself (per-edge and per-factor
	// deadline checks in core), not just the wait: a query whose
	// budget expires mid-chain stops burning CPU and returns ctx's
	// error. Background contexts make every check a no-op.
	if ctx == context.Background() {
		ctx = nil
	}
	return ep.Hybrid.CostDistributionCtx(ctx, ep.memo.Load(), p, depart, opt, de)
}

// GroundTruth runs the accuracy-optimal baseline (Section 2.2) on the
// system's trajectory data; it fails when fewer than β trajectories
// qualify (the sparseness problem).
func (s *System) GroundTruth(p Path, depart float64) (*Histogram, int, error) {
	return core.GroundTruth(s.Data(), p, depart, s.Params)
}

// Route answers a probabilistic budget query: the path from src to dst
// maximizing P(travel time ≤ budget) when departing at depart. The
// search extends each candidate by one edge from its parent's chain
// state; it does not read the memo.
func (s *System) Route(src, dst VertexID, depart, budget float64, m Method) (*RouteResult, error) {
	return s.RouteCtx(nil, src, dst, depart, budget, m)
}

// RouteCtx is Route bounded by ctx (nil = unbounded): the search
// checks the deadline once per expansion and a dead one returns ctx's
// error, never a partial route.
func (s *System) RouteCtx(ctx context.Context, src, dst VertexID, depart, budget float64, m Method) (*RouteResult, error) {
	return s.Router().BestPathCtx(ctx, routing.Query{
		Source: src, Dest: dst, Depart: depart, Budget: budget,
	}, routing.Options{Method: m})
}

// DensePaths scans the trajectory collection for paths of the given
// cardinality with at least minCount traversals within a single
// α-interval, most traversals first (core.DensePaths) — the workload
// selector behind the paper's accuracy experiments (Figures 4, 13, 14).
func (s *System) DensePaths(cardinality, minCount int) []DensePath {
	return core.DensePaths(s.Data(), s.Params, cardinality, minCount)
}

// RandomQueryPath samples a simple path of exactly n edges by random
// walk from a random populated edge; used to generate long query
// workloads (Figures 15 and 16). rnd is any deterministic int source.
func (s *System) RandomQueryPath(n int, rnd func(int) int) (Path, error) {
	if s.Graph.NumEdges() == 0 {
		// Guard before calling rnd(0): rand.Intn-shaped sources panic
		// on a non-positive bound.
		return nil, fmt.Errorf("pathcost: graph has no edges, cannot sample a query path")
	}
	for attempt := 0; attempt < 200; attempt++ {
		start := EdgeID(rnd(s.Graph.NumEdges()))
		if p := s.Graph.RandomWalkPath(start, n, rnd); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("pathcost: no %d-edge simple path found after 200 attempts", n)
}

// Stats returns the hybrid graph's build statistics (variable counts
// by rank, coverage, storage).
func (s *System) Stats() core.BuildStats { return s.Hybrid().Stats() }

// SaveModel writes the trained hybrid graph to w, and LoadSystem
// restores it against the same road network. Training is the expensive step (the paper reports minutes to 45
// minutes on its fleets), so real deployments train once and serve
// many queries.
func (s *System) SaveModel(w io.Writer) error {
	return s.Hybrid().WriteModel(w)
}

// LoadSystem restores a saved model against the road network it was
// trained on (see core.ReadHybrid for files that carry a retired
// synopsis section). data may be nil; it is only needed by GroundTruth
// and DensePaths.
func LoadSystem(g *Graph, data *Collection, r io.Reader) (*System, error) {
	h, err := core.ReadHybrid(r, g)
	if err != nil {
		return nil, err
	}
	return newSystem(g, data, h, h.Params), nil
}

// TopKRoutes answers the probabilistic top-k path query: the k best
// paths by probability of arriving within the budget.
func (s *System) TopKRoutes(src, dst VertexID, depart, budget float64, k int, m Method) ([]routing.TopKResult, error) {
	return s.TopKRoutesCtx(nil, src, dst, depart, budget, k, m)
}

// TopKRoutesCtx is TopKRoutes bounded by ctx, as RouteCtx is Route.
func (s *System) TopKRoutesCtx(ctx context.Context, src, dst VertexID, depart, budget float64, k int, m Method) ([]routing.TopKResult, error) {
	return s.Router().TopKPathsCtx(ctx, routing.Query{
		Source: src, Dest: dst, Depart: depart, Budget: budget,
	}, k, routing.Options{Method: m})
}

// ---------------------------------------------------------------------------
// Epoch lifecycle: staging, incremental publish, stats.

// SetDecayHalflife selects the incremental-maintenance mode for
// subsequent publishes. Zero (the default) is exact mode: each publish
// extends the trajectory collection and rebuilds exactly the touched
// variables from their full occurrence lists, so the published model
// is byte-identical to retraining from scratch on the concatenated
// data. A positive halflife switches to decay mode: at publish time
// every touched variable's old mass is scaled by 2^(-Δt/halflife)
// (Δt = time since the previous publish) before the new mass merges
// in, so stale observations fade exponentially; untouched variables
// keep their stored (normalized) distributions, which is exact because
// uniform decay cancels under normalization. Decay mode does not need
// the trajectory collection, so it also serves models loaded without
// data (LoadSystem with nil data). Safe to call concurrently.
func (s *System) SetDecayHalflife(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.decayBits.Store(math.Float64bits(d.Seconds()))
}

// DecayHalflife returns the configured decay halflife (zero = exact
// mode).
func (s *System) DecayHalflife() time.Duration {
	sec := math.Float64frombits(s.decayBits.Load())
	return time.Duration(sec * float64(time.Second))
}

// AttachWAL attaches an ingest write-ahead log and replays its pending
// records into the staged delta buffer — the crash-recovery path.
// Every subsequent StageTrajectories appends to the log before
// acknowledging, and PublishEpoch truncates it once a model checkpoint
// (SetWALCheckpoint) has persisted the published state. Replayed
// trajectories are re-validated against the graph; the next publish
// folds them in exactly as the pre-crash publish would have — exact
// mode builds are batching-invariant, so the recovered model is
// byte-identical to an uninterrupted run's.
//
// Attach before serving: the method itself takes the staging lock, but
// the replayed backlog should be in place before queries or ingest
// traffic arrive.
func (s *System) AttachWAL(l *wal.Log) (replayedBatches, replayedTrajs int) {
	pending := l.Pending()
	s.stageMu.Lock()
	s.wlog = l
	h := s.Hybrid()
	for _, rec := range pending {
		ok := make([]*Matched, 0, len(rec.Batch))
		for _, m := range rec.Batch {
			if h.CheckTrajectory(m) != nil {
				continue
			}
			ok = append(ok, m)
		}
		if len(ok) == 0 {
			continue
		}
		s.staged = append(s.staged, ok...)
		replayedBatches++
		replayedTrajs += len(ok)
		if rec.Seq > s.walHigh {
			s.walHigh = rec.Seq
		}
	}
	s.stageMu.Unlock()
	if replayedTrajs > 0 {
		s.statMu.Lock()
		s.stagedTotal += uint64(replayedTrajs)
		s.statMu.Unlock()
	}
	return replayedBatches, replayedTrajs
}

// SetWALCheckpoint installs the model-persistence hook that gates WAL
// truncation: after a successful publish, fn must durably persist the
// newly served model (typically SaveModel to a temp file + rename);
// only when it returns nil does PublishEpoch truncate the log through
// the published sequence. With no hook (or a failing one) the log
// retains its records — recovery then replays more than strictly
// necessary, which is safe, rather than less, which never is.
func (s *System) SetWALCheckpoint(fn func() error) {
	s.stageMu.Lock()
	s.checkpointFn = fn
	s.stageMu.Unlock()
}

// WALErrors counts the write-ahead log's failures over the System's
// lifetime.
type WALErrors struct {
	// Append counts batches rejected because the log could not append
	// them.
	Append uint64
	// Checkpoint counts publishes whose model checkpoint hook failed,
	// Truncate those whose checkpoint succeeded but whose log
	// truncation failed. Either way the epoch is served and the log
	// keeps its records, so a counter that keeps moving means a WAL
	// that keeps growing.
	Checkpoint, Truncate uint64
}

// WALStats reports the attached write-ahead log's state and error
// counters; ok is false when no WAL is attached.
func (s *System) WALStats() (st wal.Stats, errs WALErrors, ok bool) {
	s.stageMu.Lock()
	l, errs := s.wlog, s.walErrs
	s.stageMu.Unlock()
	if l == nil {
		return wal.Stats{}, WALErrors{}, false
	}
	return l.Stats(), errs, true
}

// StageTrajectories validates a batch of map-matched trajectories
// against the system's graph and appends the valid ones to the staged
// delta buffer, to be folded into the model by the next PublishEpoch.
// Invalid entries (nil, failing Matched.Validate, or missing emission
// costs when the model's domain is emissions) are counted in rejected
// and dropped; one bad trajectory never poisons the batch. Staging
// never touches the served model. Safe for concurrent use.
//
// With a WAL attached (AttachWAL) the validated batch is appended to
// the log before it is counted as accepted — durability before
// acknowledgement. A WAL write failure rejects the whole batch (and
// counts in WALStats' Append errors): acking data the log cannot hold
// would turn a later crash into silent loss.
func (s *System) StageTrajectories(batch []*Matched) (accepted, rejected int) {
	ok := make([]*Matched, 0, len(batch))
	h := s.Hybrid()
	for _, m := range batch {
		if h.CheckTrajectory(m) != nil {
			rejected++
			continue
		}
		ok = append(ok, m)
	}
	if len(ok) == 0 {
		return 0, rejected
	}
	s.stageMu.Lock()
	if s.wlog != nil {
		seq, err := s.wlog.Append(ok)
		if err != nil {
			s.walErrs.Append++
			s.stageMu.Unlock()
			return 0, rejected + len(ok)
		}
		s.walHigh = seq
	}
	s.staged = append(s.staged, ok...)
	s.stageMu.Unlock()
	s.statMu.Lock()
	s.stagedTotal += uint64(len(ok))
	s.statMu.Unlock()
	return len(ok), rejected
}

// StagedCount reports how many staged trajectories await the next
// publish.
func (s *System) StagedCount() int {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	return len(s.staged)
}

// PublishEpoch folds every staged trajectory into a new model epoch
// and atomically swaps it in. The build is copy-on-write: only
// variables whose (sub-path, interval) was touched by the staged
// batch are rebuilt (exact mode) or decayed-and-merged (decay mode);
// everything else is shared with the previous epoch by pointer.
// In-flight queries are never blocked — they finish on the epoch they
// snapshotted. A first-level query-cache entry answers only the epoch
// it carries and the new epoch starts an empty memo, so nothing they
// derived from the old model answers a query on the new one; the
// cache's second level is keyed by variable versions, so it serves the
// new epoch exactly the answers whose variables the publish left alone.
//
// With nothing staged, PublishEpoch is a no-op returning current
// stats. On a build error the staged batch is restored (ahead of
// anything staged meanwhile) so the data is not lost, and the served
// epoch is unchanged. Publishers are serialized; queries and staging
// proceed concurrently with a publish.
func (s *System) PublishEpoch() (EpochStats, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	s.stageMu.Lock()
	staged := s.staged
	s.staged = nil
	// The WAL high-water mark is captured under the same lock that
	// drained the buffer: it covers exactly the drained records (later
	// stagings append beyond it and stay pending).
	wlog, walHigh, checkpoint := s.wlog, s.walHigh, s.checkpointFn
	s.stageMu.Unlock()

	ep := s.epoch.Load()
	if len(staged) == 0 {
		return s.epochStats(ep), nil
	}

	halflife := s.DecayHalflife()
	factor := 1.0
	if halflife > 0 {
		dt := time.Since(s.lastPublish)
		if dt < 0 {
			dt = 0
		}
		factor = math.Exp2(-dt.Seconds() / halflife.Seconds())
		if factor < 1e-12 {
			// Exp2 underflows to 0 for enormous gaps; the decay builder
			// requires factor > 0, and 1e-12 already erases the past.
			factor = 1e-12
		}
	}

	t0 := time.Now()
	var (
		nh    *core.HybridGraph
		nd    *Collection
		delta core.EpochDelta
		err   error
	)
	if s.buildProbe != nil {
		err = s.buildProbe()
	}
	if err == nil {
		if halflife <= 0 {
			nh, nd, delta, err = ep.Hybrid.ApplyBatchExact(ep.Data, staged)
		} else {
			nh, delta, err = ep.Hybrid.ApplyBatchDecay(staged, factor)
			nd = ep.Data
		}
	}
	if err != nil {
		// Restore ahead of anything staged meanwhile: the drained batch
		// is older, and a later successful publish must fold batches in
		// their staging order (exact-mode determinism depends on it).
		s.stageMu.Lock()
		s.staged = append(staged, s.staged...)
		s.stageMu.Unlock()
		return s.epochStats(ep), err
	}

	// The new epoch starts an empty memo; the old one goes with its
	// epoch.
	seq := ep.Seq + 1
	nep := &ModelEpoch{Seq: seq, Hybrid: nh, Data: nd, Router: routing.New(nh)}
	if m := ep.memo.Load(); m != nil {
		nep.memo.Store(m.Fresh())
	}
	s.epoch.Store(nep)
	s.lastPublish = time.Now()

	// WAL truncation is gated on a successful model checkpoint: the
	// published epoch lives only in memory, so dropping its records
	// before some file holds their effect would leave a crash with
	// neither. No checkpointer (or a failed one) keeps the records;
	// recovery then replays them against the base model, which the
	// batching-invariant exact build folds to the same bytes. Neither
	// failure unpublishes the epoch, so each is counted and logged: a
	// log that silently stops shrinking is found when the disk fills.
	if wlog != nil && walHigh > 0 && checkpoint != nil {
		if err := checkpoint(); err != nil {
			s.walFailure(&s.walErrs.Checkpoint, "pathcost: epoch %d is served but its model checkpoint failed; the WAL keeps its records through seq %d: %v", seq, walHigh, err)
		} else if err := wlog.TruncateThrough(walHigh); err != nil {
			s.walFailure(&s.walErrs.Truncate, "pathcost: epoch %d is checkpointed but truncating the WAL through seq %d failed: %v", seq, walHigh, err)
		}
	}

	s.statMu.Lock()
	s.publishes++
	s.lastDelta = delta
	s.lastBuild = time.Since(t0)
	s.lastFactor = factor
	s.statMu.Unlock()
	return s.epochStats(nep), nil
}

// walFailure counts one post-publish WAL failure (a field of walErrs)
// and logs it.
func (s *System) walFailure(counter *uint64, format string, args ...any) {
	s.stageMu.Lock()
	*counter++
	s.stageMu.Unlock()
	log.Printf(format, args...)
}

// EpochStats reports the epoch lifecycle's state: the served epoch,
// staging backlog, and what the most recent publish did.
type EpochStats struct {
	// Seq is the served epoch's sequence number (1 = initial model).
	Seq uint64
	// Publishes counts successful epoch publishes.
	Publishes uint64
	// StagedPending is the staged-trajectory backlog awaiting publish;
	// StagedTotal counts every trajectory ever accepted for staging.
	StagedPending int
	StagedTotal   uint64
	// DecayHalflifeSec echoes the configured halflife (0 = exact mode).
	DecayHalflifeSec float64
	// LastTrajs .. LastNewVars describe the most recent publish's
	// delta: trajectories folded in, distinct (sub-path, interval)
	// variables touched, rebuilt and newly created.
	LastTrajs       int
	LastTouchedVars int
	LastRebuiltVars int
	LastNewVars     int
	// LastBuildMS is the most recent publish's model-build time;
	// LastDecayFactor the decay factor it applied (1 in exact mode).
	LastBuildMS     int64
	LastDecayFactor float64
}

// EpochStats snapshots the epoch lifecycle counters. It never waits
// behind an in-progress publish.
func (s *System) EpochStats() EpochStats { return s.epochStats(s.epoch.Load()) }

func (s *System) epochStats(ep *ModelEpoch) EpochStats {
	s.stageMu.Lock()
	pending := len(s.staged)
	s.stageMu.Unlock()
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return EpochStats{
		Seq:              ep.Seq,
		Publishes:        s.publishes,
		StagedPending:    pending,
		StagedTotal:      s.stagedTotal,
		DecayHalflifeSec: s.DecayHalflife().Seconds(),
		LastTrajs:        s.lastDelta.Trajs,
		LastTouchedVars:  s.lastDelta.TouchedPaths,
		LastRebuiltVars:  s.lastDelta.RebuiltVars,
		LastNewVars:      s.lastDelta.NewVars,
		LastBuildMS:      s.lastBuild.Milliseconds(),
		LastDecayFactor:  s.lastFactor,
	}
}
