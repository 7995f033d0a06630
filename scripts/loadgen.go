// Command loadgen fires a constant-rate query workload at a pathcost
// serving tier — a single pathcostd or a sharded coordinator — and
// reports outcome counts and latency quantiles as JSON — the CI load
// smoke (throughput and latency numbers of record come from cmd/bench).
//
// Two modes:
//
//	go run ./scripts -base http://coordinator:8080 -path 12,13,14 -qps 100 -duration 10s
//	go run ./scripts -selftest -qps 80 -duration 3s
//
// -selftest needs no deployment: it synthesizes the test model, splits
// it three ways, boots the shards and a coordinator in-process, and
// drives the load against that fleet — the smoke the CI bench job runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	if err := runCLI(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// runCLI is the whole command as a testable function of its arguments.
func runCLI(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		base     = fs.String("base", "", "target base URL (serves POST {base}/v1/distribution)")
		pathArg  = fs.String("path", "", "comma-separated edge IDs of the query path")
		depart   = fs.Float64("depart", 8*3600, "departure time in seconds")
		method   = fs.String("method", "OD", "estimation method (OD, HP, LB)")
		qps      = fs.Float64("qps", 100, "target arrival rate")
		duration = fs.Duration("duration", 10*time.Second, "generation window")
		workers  = fs.Int("workers", 16, "max in-flight requests")
		selftest = fs.Bool("selftest", false, "boot an in-process 3-way sharded fleet and load it")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	var bodies [][]byte
	target := *base
	if *selftest {
		fleetURL, fleetBodies, shutdown, err := bootFleet(*depart, *method)
		if err != nil {
			return err
		}
		defer shutdown()
		target, bodies = fleetURL, fleetBodies
	} else {
		if *base == "" || *pathArg == "" {
			return fmt.Errorf("need -base and -path (or -selftest)")
		}
		var ids []int64
		for _, f := range strings.Split(*pathArg, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return fmt.Errorf("bad edge ID %q: %v", f, err)
			}
			ids = append(ids, id)
		}
		b, err := json.Marshal(api.DistributionRequest{Path: ids, Depart: *depart, Method: *method})
		if err != nil {
			return err
		}
		bodies = [][]byte{b}
	}

	next := 0
	res, err := shard.RunLoad(context.Background(), shard.LoadConfig{
		QPS:      *qps,
		Duration: *duration,
		Workers:  *workers,
		NewRequest: func() (*http.Request, error) {
			b := bodies[next%len(bodies)]
			next++
			req, err := http.NewRequest(http.MethodPost, target+"/v1/distribution", bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return req, nil
		},
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if res.Errors > 0 || res.OK == 0 {
		return fmt.Errorf("load run unhealthy: %d ok, %d errors", res.OK, res.Errors)
	}
	return nil
}

// bootFleet synthesizes the test model, splits it 3 ways, and serves
// shards + coordinator in-process. The returned bodies are a mixed
// single-/cross-region distribution workload.
func bootFleet(depart float64, method string) (string, [][]byte, func(), error) {
	params := pathcost.DefaultParams()
	params.Beta = 20
	params.MaxRank = 4
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test", Trips: 3000, Seed: 11, Params: params,
	})
	if err != nil {
		return "", nil, nil, err
	}
	part, err := shard.NewPartition(sys.Graph, 3, sys.Params)
	if err != nil {
		return "", nil, nil, err
	}
	split, err := shard.SplitModel(sys, part)
	if err != nil {
		return "", nil, nil, err
	}
	var servers []*httptest.Server
	shutdown := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	cfg := shard.Config{ProbeInterval: -1, MaxQueue: 64}
	for _, ss := range split.Shards {
		ts := httptest.NewServer(server.New(ss, server.Config{MaxInFlight: 4}).Handler())
		servers = append(servers, ts)
		cfg.Shards = append(cfg.Shards, ts.URL)
	}
	coord, err := shard.New(sys.Graph, part, cfg)
	if err != nil {
		shutdown()
		return "", nil, nil, err
	}
	coordTS := httptest.NewServer(coord.Handler())
	servers = append(servers, coordTS)

	rnd := rand.New(rand.NewSource(41))
	var bodies [][]byte
	for len(bodies) < 16 {
		p, err := sys.RandomQueryPath(2+rnd.Intn(8), rnd.Intn)
		if err != nil {
			shutdown()
			return "", nil, nil, err
		}
		ids := make([]int64, len(p))
		for i, e := range p {
			ids[i] = int64(e)
		}
		b, err := json.Marshal(api.DistributionRequest{Path: ids, Depart: depart, Method: method})
		if err != nil {
			shutdown()
			return "", nil, nil, err
		}
		bodies = append(bodies, b)
	}
	return coordTS.URL, bodies, shutdown, nil
}
