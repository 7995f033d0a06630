package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression
	// (BENCHMARK.json carries the same numbers; a test keeps them in
	// step). Per-layer metrics have none.
	Bound float64
}

// endToEnd lists what a caller of the service pays. success_pct is
// reported beside them by every run, but it is a gate (it must read
// 100), not a metric with a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput_rps", "1/s", true, 0.20},
	{"p50_ms", "ms", false, 0.25},
	{"p95_ms", "ms", false, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.20},
	{"allocs_per_op", "count", false, 0.02},
	{"alloc_kb_per_op", "kB", false, 0.03},
	{"heap_live_mb", "MB", false, 0.05},
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median (a single set-up swings ±30 % on a shared 2-vCPU guest).
const setupRuns = 3

// options configure one run of one workload.
type options struct {
	seed    int64
	laps    int // measured laps
	trace   bool
	workdir string
}

// result is everything one run reports.
type result struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Laps          int                `json:"laps"`
	OpsPerLap     int                `json:"ops_per_lap"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	SuccessPct    float64            `json:"success_pct"`
	AnswersDigest string             `json:"answers_digest"`
	Noisy         bool               `json:"noisy"`
	Metrics       map[string]float64 `json:"metrics"` // end to end, from untraced laps
	// PerLap holds every measured lap's value of the per-lap metrics, in
	// lap order, so that host noise can be seen and not only summarized.
	PerLap     map[string][]float64 `json:"per_lap"`
	Layers     map[string]float64   `json:"layers,omitempty"` // traced run only
	FirstError string               `json:"first_error,omitempty"`
	tracer     *tracer
}

// prepared is a workload set up and warmed: the instance, the warm-up
// lap with its captured answers, and how long getting there took.
type prepared struct {
	inst    *instance
	warm    lapStats
	answers [][]byte
	seconds float64
}

// setUp builds the workload and runs its warm-up lap, capturing the
// answers.
func setUp(w *workload, opt *options, d *driver) (*prepared, error) {
	t0 := time.Now()
	inst, err := w.build(opt.seed, opt.workdir)
	if err != nil {
		return nil, err
	}
	answers := make([][]byte, 0, len(inst.ops))
	warm, err := d.lap(inst, &answers)
	return &prepared{inst, warm, answers, time.Since(t0).Seconds()}, err
}

// runWorkload performs one complete run: set-up (repeated, for a
// steady setup_s), then measure on the last set-up's instance.
func runWorkload(w *workload, opt options) (*result, error) {
	d := newDriver()
	var (
		p      *prepared
		setupS []float64
	)
	for k := 0; k < setupRuns; k++ {
		p = nil
		runtime.GC() // each set-up starts from a heap without the previous one's model
		var err error
		if p, err = setUp(w, &opt, d); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, p.seconds)
	}
	return measure(w, opt, d, p, setupS)
}

// measure is a run after its set-up: the answer check on the warm-up
// lap, the measured laps, and — in a traced run — the traced laps and
// layer probes.
func measure(w *workload, opt options, d *driver, p *prepared, setupS []float64) (*result, error) {
	inst, warm, answers := p.inst, p.warm, p.answers
	p.answers = nil
	res := &result{
		Workload: w.name, Seed: opt.seed, OpsPerLap: len(inst.ops),
		Metrics: map[string]float64{}, PerLap: map[string][]float64{},
	}
	res.Attempted = len(inst.ops)
	sum := sha256.New()
	for i, a := range answers {
		answers[i] = stripped(a)
		sum.Write(answers[i])
	}
	failed, first := checkAnswers(inst, answers)
	res.Failed = failed + warm.notOK
	if first != nil {
		res.FirstError = first.Error()
	}
	res.AnswersDigest = hex.EncodeToString(sum.Sum(nil))
	answers = nil
	runtime.GC()

	nLaps := opt.laps
	if opt.trace {
		nLaps = max(1, nLaps/3) // the rest of the run goes to the traced laps and the probes
	}
	laps := make([]lapStats, 0, nLaps)
	for len(laps) < nLaps {
		st, err := d.lap(inst, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: lap %d: %w", w.name, len(laps), err)
		}
		res.Attempted += st.ops
		if st.crc != warm.crc {
			// Some answer of this lap differs from the verified
			// warm-up lap's; which one is unknown, so the lap counts.
			res.Failed += st.ops
			if res.FirstError == "" {
				res.FirstError = fmt.Sprintf("lap %d answers differ from the warm-up lap's (crc %08x, want %08x)", len(laps), st.crc, warm.crc)
			}
		} else {
			res.Failed += st.notOK
		}
		laps = append(laps, st)
	}
	res.Laps = len(laps)
	res.SuccessPct = 100 * float64(res.Attempted-res.Failed) / float64(res.Attempted)

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	summarize(res, laps, setupS, float64(ms.HeapAlloc))

	if opt.trace {
		if err := traceRun(inst, d, &opt, res, laps); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	}
	return res, nil
}

// summarize turns the measured laps into the end-to-end metrics. Each
// timing metric is computed per lap and the run reports its best lap
// (see bestLap); allocation counts are totals over all laps. Every
// lap's values are kept in PerLap so that the noise stays visible.
func summarize(res *result, laps []lapStats, setupS []float64, heapLive float64) {
	pl := res.PerLap
	var ops, mallocs, bytes uint64
	for i := range laps {
		l := &laps[i]
		pl["throughput_rps"] = append(pl["throughput_rps"], l.rps())
		pl["p50_ms"] = append(pl["p50_ms"], l.p50)
		pl["p95_ms"] = append(pl["p95_ms"], l.p95)
		pl["p99_ms"] = append(pl["p99_ms"], l.p99)
		pl["cpu_ms_per_op"] = append(pl["cpu_ms_per_op"], l.cpuMsOp())
		pl["gc_cycles"] = append(pl["gc_cycles"], float64(l.gcs))
		ops += uint64(l.ops)
		mallocs += l.mallocs
		bytes += l.allocBytes
	}
	m := res.Metrics
	m["setup_s"] = median(setupS)
	m["throughput_rps"] = bestLap(pl["throughput_rps"], true)
	m["p50_ms"] = bestLap(pl["p50_ms"], false)
	m["p95_ms"] = bestLap(pl["p95_ms"], false)
	m["cpu_ms_per_op"] = bestLap(pl["cpu_ms_per_op"], false)
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["alloc_kb_per_op"] = float64(bytes) / 1e3 / float64(ops)
	m["heap_live_mb"] = heapLive / 1e6
	// Host noise stays visible: a run whose best lap stands alone was
	// measured through a disturbed stretch and says so.
	res.Noisy = lapsNear(pl["throughput_rps"], m["throughput_rps"], 0.05) < 3
}
