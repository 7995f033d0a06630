// Command pathcost is the interactive face of the library: it builds a
// synthetic city and trajectory workload, trains the hybrid graph, and
// answers path cost-distribution and stochastic routing queries.
//
// Usage:
//
//	pathcost -preset small -trips 20000 demo
//	pathcost -preset test -trips 5000 query -card 8 -hour 8
//	pathcost -preset test -trips 5000 route -budget-mult 2.0 -hour 8
//	pathcost -preset test -trips 5000 -synopsis 512 synopsis
//	pathcost -preset test net-stats
//
// File-based workflows (see cmd/trajgen for producing the inputs):
//
//	pathcost -network net.txt -trajectories trips.txt -save-model model.txt demo
//	pathcost -network net.txt -trajectories trips.txt -synopsis 512 -save-model model.txt demo
//	pathcost -network net.txt -raw-gps raw.txt -workers 8 demo
//	pathcost -network net.txt -model model.txt query
//
// pathcost is the one-shot/training face; to keep a trained model
// resident and answer queries over HTTP, hand its -save-model output
// to the serving daemon (see cmd/pathcostd):
//
//	pathcostd -network net.txt -model model.txt -addr :8080
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	pathcost "repro"
	"repro/internal/gps"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/shard"
)

func main() {
	preset := flag.String("preset", "small", "network preset: test, small, aalborg, beijing")
	trips := flag.Int("trips", 20000, "number of simulated trajectories")
	seed := flag.Int64("seed", 1, "workload seed")
	beta := flag.Int("beta", 30, "qualified-trajectory threshold β")
	alpha := flag.Int("alpha", 30, "interval granularity α in minutes")
	card := flag.Int("card", 8, "query path cardinality")
	hour := flag.Float64("hour", 8, "departure hour of day")
	budgetMult := flag.Float64("budget-mult", 2.0, "routing budget as a multiple of free-flow time")
	networkFile := flag.String("network", "", "load the road network from this file instead of generating one")
	trajFile := flag.String("trajectories", "", "load matched trajectories from this file instead of simulating")
	rawFile := flag.String("raw-gps", "", "load raw GPS traces from this file and map-match them (needs -network)")
	modelFile := flag.String("model", "", "load a trained model instead of training")
	saveModel := flag.String("save-model", "", "save the trained model to this file")
	workers := flag.Int("workers", runtime.NumCPU(), "goroutines for map matching and training (≤1 = sequential)")
	cacheSize := flag.Int("cache", 0, "query-distribution cache capacity in entries (0 = disabled)")
	memoSize := flag.Int("memo", 0, "sub-path convolution memo capacity in prefix states (0 = disabled)")
	synSize := flag.Int("synopsis", 0, "offline sub-path synopsis entry budget (0 = disabled); built from a synthetic prefix-heavy workload and saved with -save-model")
	synBytes := flag.Int("synopsis-bytes", 0, "synopsis byte budget for the serialized entries (0 = unbounded)")
	synWorkload := flag.Int("synopsis-workload", 512, "workload-sample size used to train the synopsis")
	partitionK := flag.Int("partition", 0, "split the trained model into this many region shards for the sharded serving tier (0 = disabled)")
	partitionOut := flag.String("partition-out", "shards", "output prefix for -partition: writes <prefix>.partition, <prefix>-shard<R>.model and <prefix>-union.model")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "demo"
	}

	params := pathcost.DefaultParams()
	params.Beta = *beta
	params.AlphaMinutes = *alpha
	params.Workers = *workers

	start := time.Now()
	sys, err := buildSystem(*preset, *trips, *seed, params, *workers,
		*networkFile, *trajFile, *rawFile, *modelFile)
	if err != nil {
		fatal(err)
	}
	if *cacheSize > 0 {
		sys.EnableQueryCache(*cacheSize)
	}
	if *memoSize > 0 {
		sys.EnableConvMemo(*memoSize)
	}
	// Train the synopsis before -save-model so it ships in the file;
	// the synopsis command replays the same workload sample below.
	var synReplay []pathcost.WorkloadQuery
	if *synSize > 0 || cmd == "synopsis" {
		budget := *synSize
		if budget <= 0 {
			budget = 512
		}
		wl, err := buildSynopsis(sys, budget, *synBytes, *synWorkload, *card, *hour*3600, *seed)
		if err != nil {
			fatal(err)
		}
		synReplay = wl
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			fatal(err)
		}
		if err := sys.SaveModel(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}
	if *partitionK > 0 {
		if err := writePartition(sys, *partitionK, *partitionOut); err != nil {
			fatal(err)
		}
	}
	st := sys.Stats()
	fmt.Printf("trained in %v: %d vertices, %d edges, %d variables (by rank %v), coverage %.1f%%\n\n",
		time.Since(start).Round(time.Millisecond),
		sys.Graph.NumVertices(), sys.Graph.NumEdges(),
		st.TotalVariables(), st.VariablesByRank, st.Coverage()*100)

	depart := *hour * 3600
	switch cmd {
	case "demo":
		runQuery(sys, *card, depart)
		fmt.Println()
		runRoute(sys, depart, *budgetMult)
	case "query":
		runQuery(sys, *card, depart)
	case "route":
		runRoute(sys, depart, *budgetMult)
	case "net-stats":
		runNetStats(sys)
	case "synopsis":
		runSynopsis(sys, synReplay, *workers, *cacheSize > 0)
	default:
		fatal(fmt.Errorf("unknown command %q (want demo, query, route, net-stats or synopsis)", cmd))
	}
	if st, ok := sys.QueryCacheStats(); ok {
		fmt.Printf("\nquery cache: %d/%d entries, %d hits, %d misses (%.0f%% hit rate), %d evictions\n",
			st.Entries, st.Capacity, st.Hits, st.Misses, st.HitRate()*100, st.Evictions)
	}
	if st, ok := sys.ConvMemoStats(); ok {
		fmt.Printf("conv memo: %d/%d prefix states, %d hits, %d misses (%.0f%% hit rate), %d evictions\n",
			st.Entries, st.Capacity, st.Hits, st.Misses, st.HitRate()*100, st.Evictions)
	}
	if st, ok := sys.SynopsisStats(); ok {
		fmt.Printf("synopsis: %d entries (%d bytes), %d hits, %d misses (%.0f%% hit rate)\n",
			st.Entries, st.Bytes, st.Hits, st.Misses, st.HitRate()*100)
	}
}

// buildSynopsis trains the offline synopsis on a synthetic
// prefix-heavy workload sample and attaches it to the system.
func buildSynopsis(sys *pathcost.System, entries, maxBytes, workloadN, card int, depart float64, seed int64) ([]pathcost.WorkloadQuery, error) {
	workload, err := sys.SyntheticWorkload(workloadN, card, seed+13, []float64{depart})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	syn, err := sys.BuildSynopsis(workload, pathcost.SynopsisConfig{
		MaxEntries: entries, MaxBytes: maxBytes,
	})
	if err != nil {
		return nil, err
	}
	rep := syn.Report()
	fmt.Printf("synopsis built in %v: %d/%d candidates selected from %d workload queries, %d bytes, %.0f%% of chain steps absorbed\n",
		time.Since(t0).Round(time.Millisecond), rep.Selected, rep.Candidates, rep.Queries, rep.Bytes,
		100*float64(rep.SavedSteps)/float64(rep.TotalSteps))
	return workload, nil
}

// runSynopsis answers the synopsis's training workload (a) with a
// cold convolution memo and (b) with the synopsis plus a cold memo —
// the cold-server-start comparison — verifying byte-identical results
// and reporting hit rate and speedup. The synopsis itself was built (and attached)
// before -save-model ran, so the persisted model carries it.
func runSynopsis(sys *pathcost.System, workload []pathcost.WorkloadQuery, workers int, hadCache bool) {
	if workers < 1 {
		workers = 1
	}
	syn := sys.Synopsis()
	if hadCache {
		// The α-interval query cache would serve the warm replay from
		// the cold replay's results and measure the cache, not the
		// synopsis; keep it out of the comparison.
		sys.EnableQueryCache(0)
		fmt.Println("synopsis: -cache disabled for the comparison (it would mask the synopsis)")
	}

	run := func() ([]*pathcost.QueryResult, time.Duration) {
		results := make([]*pathcost.QueryResult, len(workload))
		t0 := time.Now()
		var wg sync.WaitGroup
		idx := make(chan int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					res, err := sys.PathDistribution(workload[i].Path, workload[i].Depart, pathcost.OD)
					if err != nil {
						fatal(err)
					}
					results[i] = res
				}
			}()
		}
		for i := range workload {
			idx <- i
		}
		close(idx)
		wg.Wait()
		return results, time.Since(t0)
	}

	fmt.Printf("synopsis: replaying %d workload queries with %d workers\n", len(workload), workers)
	sys.AttachSynopsis(nil)
	sys.EnableConvMemo(1 << 16) // fresh = cold memo
	cold, coldDur := run()
	sys.AttachSynopsis(syn)
	sys.EnableConvMemo(1 << 16) // fresh again: only the synopsis is warm
	warm, warmDur := run()

	identical := true
	for i := range cold {
		a, b := cold[i].Dist.Buckets(), warm[i].Dist.Buckets()
		if len(a) != len(b) {
			identical = false
			break
		}
		for j := range a {
			if a[j] != b[j] {
				identical = false
				break
			}
		}
	}
	st, _ := sys.SynopsisStats()
	fmt.Printf("  cold memo:     %v (%.0f queries/s)\n", coldDur.Round(time.Millisecond),
		float64(len(workload))/coldDur.Seconds())
	fmt.Printf("  warm synopsis: %v (%.0f queries/s), %.1fx faster\n", warmDur.Round(time.Millisecond),
		float64(len(workload))/warmDur.Seconds(), float64(coldDur)/float64(warmDur))
	fmt.Printf("  synopsis probes: %d hits, %d misses (%.0f%% hit rate)\n", st.Hits, st.Misses, st.HitRate()*100)
	fmt.Printf("  results byte-identical: %v\n", identical)
	if !identical {
		fatal(fmt.Errorf("synopsis-backed results diverged from cold evaluation"))
	}
}

// buildSystem assembles the System from files or by synthesis.
func buildSystem(preset string, trips int, seed int64, params pathcost.Params, workers int,
	networkFile, trajFile, rawFile, modelFile string) (*pathcost.System, error) {
	if trajFile != "" && rawFile != "" {
		return nil, fmt.Errorf("-trajectories and -raw-gps are mutually exclusive")
	}
	if networkFile == "" {
		if trajFile != "" || rawFile != "" || modelFile != "" {
			return nil, fmt.Errorf("-trajectories, -raw-gps and -model require -network")
		}
		fmt.Printf("building %s city with %d trips (seed %d)...\n", preset, trips, seed)
		return pathcost.Synthesize(pathcost.SynthesizeConfig{
			Preset: preset, Trips: trips, Seed: seed, Params: params,
		})
	}
	nf, err := os.Open(networkFile)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	g, err := netgen.ReadGraph(nf)
	if err != nil {
		return nil, err
	}
	var data *pathcost.Collection
	if trajFile != "" {
		tf, err := os.Open(trajFile)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		data, err = gps.ReadCollection(tf, g)
		if err != nil {
			return nil, err
		}
	}
	if rawFile != "" {
		rf, err := os.Open(rawFile)
		if err != nil {
			return nil, err
		}
		defer rf.Close()
		raw, err := gps.ReadRaw(rf)
		if err != nil {
			return nil, err
		}
		fmt.Printf("map matching %d raw traces from %s with %d workers...\n",
			len(raw), rawFile, workers)
		t0 := time.Now()
		matched, st, err := pathcost.MatchTrajectories(g, raw, pathcost.MatcherConfig{Workers: workers})
		if err != nil {
			return nil, err
		}
		fmt.Printf("matched %d/%d traces (%d records) in %v\n",
			st.Matched, st.Matched+st.Failed, st.Records, time.Since(t0).Round(time.Millisecond))
		data = matched
	}
	if modelFile != "" {
		mf, err := os.Open(modelFile)
		if err != nil {
			return nil, err
		}
		defer mf.Close()
		fmt.Printf("loading model %s...\n", modelFile)
		return pathcost.LoadSystem(g, data, mf)
	}
	if data == nil {
		return nil, fmt.Errorf("need -trajectories, -raw-gps or -model with -network")
	}
	fmt.Printf("training on %d trajectories with %d workers...\n", data.Len(), workers)
	return pathcost.NewSystem(g, data, params)
}

func runQuery(sys *pathcost.System, card int, depart float64) {
	rnd := rand.New(rand.NewSource(42))
	p, err := sys.RandomQueryPath(card, rnd.Intn)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query path %v departing %s\n", p, clock(depart))
	for _, m := range []pathcost.Method{pathcost.OD, pathcost.HP, pathcost.LB} {
		res, err := sys.PathDistribution(p, depart, m)
		if err != nil {
			fatal(err)
		}
		d := res.Dist
		fmt.Printf("  %-2s: mean %6.1fs  p10 %6.1fs  p90 %6.1fs  buckets %2d  decomp %d paths (max rank %d)  %.2fms\n",
			m, d.Mean(), d.Quantile(0.1), d.Quantile(0.9), d.NumBuckets(),
			res.Decomp.Cardinality(), res.Decomp.MaxRank(),
			float64(res.Timing.Total().Microseconds())/1000)
	}
}

func runRoute(sys *pathcost.System, depart, budgetMult float64) {
	// Pick a reachable pair with a meaningful distance.
	src := pathcost.VertexID(sys.Graph.NumVertices() / 3)
	dists := sys.Graph.ShortestDistances(src, graph.FreeFlowWeight)
	var dst pathcost.VertexID = -1
	best := 0.0
	for v, d := range dists {
		if pathcost.VertexID(v) != src && d > best && d < 900 {
			best = d
			dst = pathcost.VertexID(v)
		}
	}
	if dst < 0 {
		fatal(fmt.Errorf("no reachable destination from vertex %d", src))
	}
	budget := best * budgetMult
	fmt.Printf("route %d → %d departing %s, budget %.0fs (%.1f× free-flow)\n",
		src, dst, clock(depart), budget, budgetMult)
	for _, m := range []pathcost.Method{pathcost.OD, pathcost.LB} {
		t0 := time.Now()
		res, err := sys.Route(src, dst, depart, budget, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-2s-DFS: P(arrive ≤ budget) = %.3f over %d edges; explored %d, pruned %d, %v\n",
			m, res.Prob, len(res.Path), res.Explored, res.Pruned, time.Since(t0).Round(time.Millisecond))
	}
}

func runNetStats(sys *pathcost.System) {
	classCount := make(map[string]int)
	var totalKm float64
	for _, e := range sys.Graph.Edges() {
		classCount[e.Class.String()]++
		totalKm += e.LengthM / 1000
	}
	fmt.Printf("network: %d vertices, %d directed edges, %.0f km total\n",
		sys.Graph.NumVertices(), sys.Graph.NumEdges(), totalKm)
	for c, n := range classCount {
		fmt.Printf("  %-12s %d\n", c, n)
	}
	fmt.Printf("trajectories: %d (≈%d raw GPS records)\n", sys.Data().Len(), sys.Data().Records())
}

func clock(t float64) string {
	h := int(t) / 3600 % 24
	m := int(t) / 60 % 60
	return fmt.Sprintf("%02d:%02d", h, m)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pathcost:", err)
	os.Exit(1)
}

// writePartition cuts the trained model into k region shards for the
// sharded serving tier: <prefix>.partition holds the vertex→region
// map (the coordinator's input), <prefix>-shard<R>.model each region's
// model slice (one pathcostd -model per shard), and
// <prefix>-union.model the single-process reference model the sharded
// deployment is byte-identical to.
func writePartition(sys *pathcost.System, k int, prefix string) error {
	part, err := shard.NewPartition(sys.Graph, k, sys.Params)
	if err != nil {
		return err
	}
	res, err := shard.SplitModel(sys, part)
	if err != nil {
		return err
	}
	writeFile := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	pname := prefix + ".partition"
	if err := writeFile(pname, part.Write); err != nil {
		return err
	}
	for r, ss := range res.Shards {
		name := fmt.Sprintf("%s-shard%d.model", prefix, r)
		if err := writeFile(name, ss.SaveModel); err != nil {
			return err
		}
	}
	if err := writeFile(prefix+"-union.model", res.Union.SaveModel); err != nil {
		return err
	}
	fmt.Printf("partitioned into %d regions: %s + %d shard models + union reference (%d cross-region variables dropped, %d synopsis entries dropped)\n",
		k, pname, len(res.Shards), res.Dropped, res.DroppedSynopsis)
	return nil
}
