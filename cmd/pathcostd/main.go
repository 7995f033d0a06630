// Command pathcostd is the serving daemon: it loads (or synthesizes)
// a trained hybrid-graph model once and answers path cost-distribution
// and stochastic routing queries over an HTTP JSON API — the
// train-once/serve-many deployment shape the paper's economics imply,
// extended with streaming maintenance: raw GPS batches POSTed to
// /v1/ingest are map-matched and staged, and a periodic epoch publish
// folds them into the served model incrementally without blocking
// queries.
//
// Serve a synthesized city (no files needed):
//
//	pathcostd -preset small -trips 20000 -addr :8080
//
// Serve a trained model (see cmd/pathcost -save-model), with
// streaming ingestion publishing a fresh epoch every 5 minutes:
//
//	pathcostd -network net.txt -model model.txt -addr :8080 \
//	  -ingest -epoch-interval 5m
//
// Query it:
//
//	curl -s localhost:8080/v1/distribution \
//	  -d '{"path":[12,13,14],"depart":28800,"method":"OD","budget":600}'
//	curl -s localhost:8080/v1/route \
//	  -d '{"source":3,"dest":41,"depart":28800,"budget":900}'
//	curl -s localhost:8080/v1/batch \
//	  -d '{"queries":[{"kind":"distribution","path":[12,13],"depart":28800},
//	                  {"kind":"route","source":3,"dest":41,"depart":28800,"budget":900}]}'
//	curl -s localhost:8080/v1/ingest \
//	  -d '{"trajectories":[{"id":7,"points":[{"lat":57.01,"lon":9.99,"t":28800},...]}]}'
//	curl -s localhost:8080/v1/stats
//
// See docs/API.md for the full endpoint reference.
//
// Incremental maintenance: with -epoch-interval > 0 a timer publishes
// a new model epoch whenever deltas are staged. -decay-halflife
// selects the maintenance mode — 0 (default) rebuilds touched
// variables exactly (byte-identical to full retraining on the
// concatenated data); a positive halflife ages old observations by
// 2^(-Δt/halflife) instead, trading exactness for bounded memory and
// recency weighting (and is the only mode available when the model
// was loaded from a file without its trajectory collection).
//
// Signals: SIGHUP forces an epoch publish now (it no longer reloads
// -model from disk; staged deltas are the live update path).
// SIGINT/SIGTERM drain in-flight requests and exit.
//
// Profiling: -pprof <addr> exposes net/http/pprof on a separate
// listener (off by default) so the convolution hot paths can be
// profiled in production without touching the query port:
//
//	pathcostd -addr :8080 -pprof 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=15
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/netgen"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// options collects every knob of the daemon so the run loop is a
// plain testable function of its inputs.
type options struct {
	addr        string
	preset      string
	trips       int
	seed        int64
	beta, alpha int
	networkFile string
	modelFile   string
	cacheSize   int
	memoSize    int
	maxInFlight int
	maxQueue    int
	drain       time.Duration
	pprofAddr   string

	enableIngest  bool
	ingestWorkers int
	maxIngest     int
	epochInterval time.Duration
	decayHalflife time.Duration
	walDir        string
	walCheckpoint string

	defaultTimeout time.Duration

	// Coordinator mode: serve the API over a fleet of shards instead
	// of a local model.
	coordinator   bool
	shards        string
	partitionFile string
	hedgeAfter    time.Duration
	probeInterval time.Duration
	shardTimeout  time.Duration
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opt.preset, "preset", "small", "network preset when synthesizing: test, small, aalborg, beijing")
	flag.IntVar(&opt.trips, "trips", 20000, "simulated trajectories when synthesizing")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed when synthesizing")
	flag.IntVar(&opt.beta, "beta", 30, "qualified-trajectory threshold β (synthesized training)")
	flag.IntVar(&opt.alpha, "alpha", 30, "interval granularity α in minutes (synthesized training)")
	flag.StringVar(&opt.networkFile, "network", "", "road-network file (required with -model)")
	flag.StringVar(&opt.modelFile, "model", "", "trained model file to serve (requires -network)")
	flag.IntVar(&opt.cacheSize, "cache", 4096, "query-distribution cache capacity in entries (0 = disabled); cached answers are shared per departure α-interval")
	flag.IntVar(&opt.memoSize, "memo", 4096, "sub-path convolution memo capacity in prefix states (0 = disabled); exact — memoized answers are byte-identical")
	flag.IntVar(&opt.maxInFlight, "max-inflight", 0, "max concurrently evaluated queries (0 = default)")
	flag.IntVar(&opt.maxQueue, "max-queue", 0, "load shedding: max requests queued for an evaluation slot before new arrivals get 429 + Retry-After (0 = no shedding)")
	flag.DurationVar(&opt.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout (0 = close immediately)")
	flag.BoolVar(&opt.coordinator, "coordinator", false, "serve as the sharded-tier coordinator over -shards instead of a local model (requires -network and -partition)")
	flag.StringVar(&opt.shards, "shards", "", "comma-separated shard base URLs, one per partition region in order; a region may be a pipe-separated replica group, e.g. http://a:8080|http://b:8080 (coordinator mode)")
	flag.StringVar(&opt.partitionFile, "partition", "", "region partition file written by cmd/pathcost -partition (coordinator mode)")
	flag.DurationVar(&opt.hedgeAfter, "hedge-after", 150*time.Millisecond, "race a second leg against a shard call slower than this (coordinator mode)")
	flag.DurationVar(&opt.probeInterval, "probe-interval", 2*time.Second, "per-replica health probe spacing (GET /v1/stats; also feeds each region's epoch in the coordinator's /v1/stats); negative disables (coordinator mode)")
	flag.DurationVar(&opt.shardTimeout, "shard-timeout", 10*time.Second, "per-leg shard call timeout (coordinator mode)")
	flag.DurationVar(&opt.defaultTimeout, "default-timeout", 0, "end-to-end deadline per query request; expiry answers 504, and clients tighten it per request with the X-Budget-Ms header (0 = unbounded)")
	flag.BoolVar(&opt.enableIngest, "ingest", false, "enable POST /v1/ingest: raw GPS batches are map-matched and staged for the next epoch publish")
	flag.IntVar(&opt.ingestWorkers, "ingest-workers", runtime.NumCPU(), "map-matching worker pool per ingest batch")
	flag.IntVar(&opt.maxIngest, "max-ingest-batch", 0, "max trajectories per /v1/ingest request (0 = default)")
	flag.DurationVar(&opt.epochInterval, "epoch-interval", 0, "publish a new model epoch this often when deltas are staged (0 = only on SIGHUP)")
	flag.DurationVar(&opt.decayHalflife, "decay-halflife", 0, "exponential time-decay halflife for epoch publishes (0 = exact incremental rebuild)")
	flag.StringVar(&opt.walDir, "wal", "", "ingest write-ahead log directory: staged batches are persisted before acknowledgment and replayed at boot, so a crash never loses acked trajectories")
	flag.StringVar(&opt.walCheckpoint, "wal-checkpoint", "", "model checkpoint file written after each epoch publish (temp + rename); a successful checkpoint lets the WAL truncate folded records (requires -wal)")
	flag.StringVar(&opt.pprofAddr, "pprof", "", "listen address for net/http/pprof and /metrics (e.g. 127.0.0.1:6060; empty = disabled)")
	flag.Parse()

	logger := log.New(os.Stderr, "pathcostd: ", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	if err := run(ctx, opt, logger, hup, nil); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("drained and stopped")
}

// run is the daemon's whole serve loop as a testable function: build
// the system, bind the listener, start the epoch loop, serve until
// ctx ends. hup delivers force-publish requests (wired to SIGHUP by
// main, to a plain channel by tests; nil disables). onReady, when
// non-nil, is called with the bound address and the served system
// once the listener is up — tests bind port 0 and discover both here.
func run(ctx context.Context, opt options, logger *log.Logger, hup <-chan os.Signal, onReady func(net.Addr, *pathcost.System)) error {
	if opt.coordinator {
		return runCoordinator(ctx, opt, logger, onReady)
	}
	sys, err := buildSystem(opt, logger)
	if err != nil {
		return err
	}
	if opt.cacheSize > 0 {
		sys.EnableQueryCache(opt.cacheSize)
	}
	if opt.memoSize > 0 {
		sys.EnableConvMemo(opt.memoSize)
	}
	sys.SetDecayHalflife(opt.decayHalflife)

	if opt.walCheckpoint != "" && opt.walDir == "" {
		return fmt.Errorf("-wal-checkpoint requires -wal")
	}
	if opt.walDir != "" {
		wlog, err := wal.Open(opt.walDir, wal.Options{})
		if err != nil {
			return err
		}
		defer wlog.Close()
		if opt.walCheckpoint != "" {
			sys.SetWALCheckpoint(func() error {
				return saveModelAtomic(sys, opt.walCheckpoint)
			})
		}
		rb, rt := sys.AttachWAL(wlog)
		if rt > 0 {
			logger.Printf("wal: replayed %d trajectories from %d batches in %s; they fold in at the next epoch publish", rt, rb, opt.walDir)
		} else {
			logger.Printf("wal: %s clean, nothing to replay", opt.walDir)
		}
	}

	st := sys.Stats()
	logger.Printf("serving %d vertices / %d edges, %d variables, coverage %.1f%% on %s",
		sys.Graph.NumVertices(), sys.Graph.NumEdges(), st.TotalVariables(), st.Coverage()*100, opt.addr)

	srv := server.New(sys, server.Config{
		MaxInFlight:    opt.maxInFlight,
		MaxQueue:       opt.maxQueue,
		EnableIngest:   opt.enableIngest,
		IngestWorkers:  opt.ingestWorkers,
		MaxIngestBatch: opt.maxIngest,
		DefaultTimeout: opt.defaultTimeout,
	})
	if opt.pprofAddr != "" {
		go servePprof(opt.pprofAddr, logger, srv.Metrics())
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	if onReady != nil {
		onReady(ln.Addr(), sys)
	}

	go epochLoop(ctx, sys, opt.epochInterval, hup, logger)

	return srv.RunListener(ctx, ln, opt.drain)
}

// runCoordinator is run's coordinator-mode body: no model is loaded —
// only the network and its region partition — and every query is
// answered by decomposing it over the shard fleet. The coordinator
// serves /metrics on its main mux (it has no evaluation hot path to
// protect), and -pprof still opens the usual debug listener.
func runCoordinator(ctx context.Context, opt options, logger *log.Logger, onReady func(net.Addr, *pathcost.System)) error {
	if opt.networkFile == "" || opt.partitionFile == "" {
		return fmt.Errorf("-coordinator requires -network and -partition")
	}
	var bases []string
	for _, s := range strings.Split(opt.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			bases = append(bases, s)
		}
	}
	if len(bases) == 0 {
		return fmt.Errorf("-coordinator requires -shards (comma-separated base URLs, one per region)")
	}
	nf, err := os.Open(opt.networkFile)
	if err != nil {
		return err
	}
	g, err := netgen.ReadGraph(nf)
	nf.Close()
	if err != nil {
		return err
	}
	pf, err := os.Open(opt.partitionFile)
	if err != nil {
		return err
	}
	part, err := shard.ReadPartition(pf, g)
	pf.Close()
	if err != nil {
		return err
	}
	coord, err := shard.New(g, part, shard.Config{
		Shards:         bases,
		MaxInFlight:    opt.maxInFlight,
		MaxQueue:       opt.maxQueue,
		Timeout:        opt.shardTimeout,
		HedgeAfter:     opt.hedgeAfter,
		ProbeInterval:  opt.probeInterval,
		DefaultTimeout: opt.defaultTimeout,
	})
	if err != nil {
		return err
	}
	if opt.pprofAddr != "" {
		go servePprof(opt.pprofAddr, logger, nil)
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	if onReady != nil {
		onReady(ln.Addr(), nil)
	}
	logger.Printf("coordinating %d shards over %d vertices / %d regions on %s",
		len(bases), g.NumVertices(), part.K, opt.addr)
	return coord.RunListener(ctx, ln, opt.drain)
}

// epochLoop publishes staged deltas into new model epochs: on a timer
// when interval > 0, and immediately on every hup delivery (SIGHUP in
// production). Publishing with nothing staged is skipped — the served
// epoch only advances when there is something to fold in. A failed
// publish keeps the deltas staged and the old epoch serving.
func epochLoop(ctx context.Context, sys *pathcost.System, interval time.Duration, hup <-chan os.Signal, logger *log.Logger) {
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	publish := func(trigger string) {
		if sys.StagedCount() == 0 {
			if trigger == "SIGHUP" {
				logger.Printf("SIGHUP: nothing staged, epoch unchanged")
			}
			return
		}
		st, err := sys.PublishEpoch()
		if err != nil {
			logger.Printf("%s: epoch publish failed, deltas retained: %v", trigger, err)
			return
		}
		logger.Printf("%s: published epoch %d: %d trajectories folded, %d vars touched (%d rebuilt, %d new) in %dms",
			trigger, st.Seq, st.LastTrajs, st.LastTouchedVars, st.LastRebuiltVars, st.LastNewVars, st.LastBuildMS)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			publish("epoch timer")
		case _, ok := <-hup:
			if !ok {
				return
			}
			publish("SIGHUP")
		}
	}
}

// servePprof runs the profiling endpoints — and, when a metrics
// handler is given, the Prometheus /metrics scrape — on their own
// listener and mux: never the query listener, and never the default
// mux, so the debug surface cannot leak onto the serving port and
// scrapers never compete with queries for the serving socket.
func servePprof(addr string, logger *log.Logger, metrics http.Handler) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if metrics != nil {
		mux.Handle("/metrics", metrics)
	}
	logger.Printf("pprof listening on %s", addr)
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: api.ServeReadHeaderTimeout,
		IdleTimeout:       api.ServeIdleTimeout,
	}
	if err := srv.ListenAndServe(); err != nil {
		logger.Printf("pprof listener failed: %v", err)
	}
}

// saveModelAtomic persists the served model with the temp-file +
// rename dance: the checkpoint path either holds the complete previous
// model or the complete new one, never a torn write — exactly what WAL
// truncation relies on. Syncing the file, then its directory, makes the
// new model survive power loss before the WAL drops what it folds.
func saveModelAtomic(sys *pathcost.System, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := sys.SaveModel(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// buildSystem loads network+model from files, or synthesizes a city
// and trains on it.
func buildSystem(opt options, logger *log.Logger) (*pathcost.System, error) {
	if opt.modelFile != "" && opt.networkFile == "" {
		return nil, fmt.Errorf("-model requires -network")
	}
	if opt.networkFile != "" && opt.modelFile == "" {
		return nil, fmt.Errorf("-network requires -model (train with cmd/pathcost -save-model first)")
	}
	if opt.modelFile == "" {
		params := pathcost.DefaultParams()
		params.Beta = opt.beta
		params.AlphaMinutes = opt.alpha
		logger.Printf("synthesizing %s city with %d trips (seed %d) and training...", opt.preset, opt.trips, opt.seed)
		t0 := time.Now()
		sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: opt.preset, Trips: opt.trips, Seed: opt.seed, Params: params,
		})
		if err != nil {
			return nil, err
		}
		logger.Printf("trained in %v", time.Since(t0).Round(time.Millisecond))
		return sys, nil
	}
	nf, err := os.Open(opt.networkFile)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	g, err := netgen.ReadGraph(nf)
	if err != nil {
		return nil, err
	}
	mf, err := os.Open(opt.modelFile)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	return pathcost.LoadSystem(g, nil, mf)
}
