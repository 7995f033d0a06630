// Command bench is the repository's benchmark: five workloads driven
// by one closed-loop client through the servers' own handlers, with
// answers verified against a reuse-off oracle on every run. See
// README.md beside this file for the metrics, the workloads, the
// best-lap estimator and the host-noise evidence behind it.
//
// It is a module of its own so that it builds from this directory
// alone; run it from the repository root:
//
//	sh cmd/bench/run.sh                                  # all workloads, tables
//	sh cmd/bench/run.sh -json                            # the same, one JSON report
//	sh cmd/bench/run.sh -workload hot_prefix -seed 7     # one run; last line is the result object
//	sh cmd/bench/run.sh -workload sharded_cross -trace 1 -trace-out spans.json
//	sh cmd/bench/run.sh -aa 5                            # A/A self-check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	// One P for the whole process, set-up included. The client is one
	// goroutine, and what the program runs beside it (GC workers, the
	// planner's and the matcher's pools, the coordinator's leg
	// goroutines) makes every timing depend on how fast the hypervisor
	// wakes the second vCPU of a shared guest: with two Ps the best lap
	// of identical runs spread 5–20 % (quartiles, ten seeds), with one P
	// 2–8 %, interleaved on the same host (README, "One P"). The numbers
	// are then the program's service time including its GC work;
	// parallel speed-up and contention are out of this benchmark's scope.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "all", "workload to run: a name from -list, a comma-separated list, or all")
		seed     = fs.Int64("seed", 1, "seed of the generated requests (the city is fixed)")
		seconds  = fs.Float64("seconds", 12, "measuring time per run, after set-up, as a lap count: two laps per second (a lap is sized to half a second on a 2-vCPU host)")
		laps     = fs.Int("laps", 0, "measured laps per run; overrides -seconds")
		trace    = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
		asJSON   = fs.Bool("json", false, "print one JSON report instead of tables")
		list     = fs.Bool("list", false, "list the workloads and exit")
		aa       = fs.Int("aa", 0, "A/A self-check: run the workloads N times, interleaved, and compare each metric's spread with its bound")
		workdir  = fs.String("workdir", ".bench_build", "directory for scratch files (the ingest WAL); created if missing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-14s %s\n", w.name, w.why)
		}
		return 0
	}
	var chosen []*workload
	if *names == "all" {
		for i := range workloads {
			chosen = append(chosen, &workloads[i])
		}
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := findWorkload(strings.TrimSpace(n))
			if w == nil {
				fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", n)
				return 2
			}
			chosen = append(chosen, w)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	opt := options{seed: *seed, laps: *laps, trace: *trace == 1, workdir: scratch}
	if opt.laps <= 0 {
		// The run length is a lap count fixed before the run starts, not
		// a deadline: how many laps a best-lap estimate is taken over
		// must not depend on how fast the commit under test is.
		opt.laps = max(minLaps, int(math.Round(*seconds/nominalLapSeconds)))
	}

	if *aa > 0 {
		return selfCheck(chosen, opt, *aa, stdout, stderr)
	}

	var results []*result
	ok := true
	for _, w := range chosen {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if res.Failed > 0 {
			ok = false
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed: %s\n", w.name, res.Failed, res.Attempted, res.FirstError)
		}
		if *traceOut != "" && res.tracer != nil {
			out := *traceOut
			if len(chosen) > 1 {
				out = strings.TrimSuffix(out, filepath.Ext(out)) + "." + w.name + filepath.Ext(out)
			}
			if err := res.tracer.writeFile(out, w.name); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		results = append(results, res)
		if len(chosen) > 1 && !*asJSON {
			printTable(stdout, res)
		}
	}
	switch {
	case len(chosen) == 1:
		// One workload: the human-readable table goes to stderr and the
		// last line of stdout is the result object.
		printTable(stderr, results[0])
		if *asJSON {
			printJSON(stdout, results[0])
		}
		printJSON(stdout, contractLine(results[0], opt.trace))
	case *asJSON:
		printJSON(stdout, results)
	}
	if !ok {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // reports are plain maps and structs
	}
	fmt.Fprintf(w, "%s\n", b)
}

// contractLine is the one-object result a harness reads from the last
// line of stdout: the end-to-end metrics, or with -trace 1 the
// per-layer ones, each with its unit.
func contractLine(res *result, traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.Metrics
	if traced {
		defs, vals = perLayer, res.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics}
}

func printTable(w io.Writer, res *result) {
	noisy := ""
	if res.Noisy {
		noisy = "  NOISY: fewer than 3 laps within 5% of the best"
	}
	fmt.Fprintf(w, "%s  seed %d  %d laps x %d ops  success_pct %.4g %%%s\n",
		res.Workload, res.Seed, res.Laps, res.OpsPerLap, res.SuccessPct, noisy)
	fmt.Fprintf(w, "  answers_digest %s\n", res.AnswersDigest)
	for _, d := range endToEnd {
		line := fmt.Sprintf("  %-18s %12.4f %-5s", d.Name, res.Metrics[d.Name], d.Unit)
		if perLap, ok := res.PerLap[d.Name]; ok {
			line += fmt.Sprintf("  (median lap %.4f)", median(perLap))
		}
		fmt.Fprintln(w, line)
	}
	p99 := res.PerLap["p99_ms"]
	fmt.Fprintf(w, "  %-18s %12.4f %-5s  (median lap %.4f; diagnostic)\n", "p99_ms", bestLap(p99, false), "ms", median(p99))
	if res.Layers != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.Layers[d.Name], d.Unit)
		}
	}
}

// selfCheck is the A/A check: identical code, n runs per workload,
// interleaved so that a slow stretch of the host hits every workload
// and not one. A metric passes when the max relative spread of its n
// values, (max − min) / median, stays within its bound. The quartile
// spread, (Q3 − Q1) / median, is printed beside it. setup_s is shown
// but cannot fail: its bound is on the drift between two sets of runs,
// not on the spread within one.
func selfCheck(chosen []*workload, opt options, n int, stdout, stderr io.Writer) int {
	opt.trace = false
	values := map[string]map[string][]float64{}
	digests := map[string]string{}
	ok := true
	for run := 0; run < n; run++ {
		for _, w := range chosen {
			res, err := runWorkload(w, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			flag := ""
			if res.Noisy {
				flag = " noisy"
			}
			fmt.Fprintf(stderr, "aa run %d/%d %-14s %8.0f rps  p50 %.4f ms  success %.4g %%%s\n",
				run+1, n, w.name, res.Metrics["throughput_rps"], res.Metrics["p50_ms"], res.SuccessPct, flag)
			if res.Failed > 0 {
				ok = false
				fmt.Fprintf(stdout, "FAIL %s: %d operations failed: %s\n", w.name, res.Failed, res.FirstError)
			}
			if d, seen := digests[w.name]; seen && d != res.AnswersDigest {
				ok = false
				fmt.Fprintf(stdout, "FAIL %s: answers_digest changed between identical runs\n", w.name)
			}
			digests[w.name] = res.AnswersDigest
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				values[w.name][k] = append(values[w.name][k], v)
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-16s %12s %12s %12s %9s %9s %7s\n",
		"workload", "metric", "min", "median", "max", "spread", "quartile", "bound")
	for _, w := range chosen {
		for _, d := range endToEnd {
			xs := sortedCopy(values[w.name][d.Name])
			spread := rangeSpread(xs)
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Fprintf(stdout, "%-14s %-16s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, d.Name, xs[0], median(xs), xs[len(xs)-1],
				100*spread, 100*quartileSpread(xs), 100*d.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
