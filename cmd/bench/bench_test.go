package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/api"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}, {0, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// 400 samples: the 95th percentile leaves exactly 20 beyond it.
	big := make([]float64, 400)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.95); got != 380 {
		t.Errorf("quantile(1..400, 0.95) = %v, want 380", got)
	}
}

func TestBestLapEstimator(t *testing.T) {
	// An episodic slow-down drags most laps; the best lap ignores it.
	rps := []float64{650, 1000, 640, 990, 655, 1001}
	if got := bestLap(rps, true); got != 1001 {
		t.Errorf("best throughput = %v, want 1001", got)
	}
	p50 := []float64{1.5, 1.0, 1.6, 1.02}
	if got := bestLap(p50, false); got != 1.0 {
		t.Errorf("best p50 = %v, want 1.0", got)
	}
	if got := median(rps); got != 822.5 {
		t.Errorf("median = %v, want 822.5", got)
	}
	if n := lapsNear(rps, 1001, 0.05); n != 3 {
		t.Errorf("laps within 5%% of the best = %d, want 3", n)
	}
	if n := lapsNear([]float64{650, 1000, 640}, 1000, 0.05); n != 1 {
		t.Errorf("laps within 5%% of the best = %d, want 1 (a noisy run)", n)
	}
}

// TestSummarizeReportsBestLaps pins the estimator: every timing metric
// is one that some lap achieved as a whole, each metric taking its own
// best lap, and the allocation counts are totals over all laps.
func TestSummarizeReportsBestLaps(t *testing.T) {
	laps := []lapStats{
		{ops: 100, wallNs: 2e8, cpuNs: 1.9e8, p50: 1.5, p95: 4.0, p99: 9, mallocs: 1000, allocBytes: 50_000},
		{ops: 100, wallNs: 1e8, cpuNs: 0.9e8, p50: 0.9, p95: 3.0, p99: 5, mallocs: 1010, allocBytes: 50_500},
		{ops: 100, wallNs: 1.25e8, cpuNs: 0.8e8, p50: 0.8, p95: 3.5, p99: 4, mallocs: 990, allocBytes: 49_500},
	}
	res := &result{Metrics: map[string]float64{}, PerLap: map[string][]float64{}}
	summarize(res, laps, []float64{3, 1, 2}, 7e6)
	want := map[string]float64{
		"setup_s": 2, "throughput_rps": 1000, "p50_ms": 0.8, "p95_ms": 3.0, "cpu_ms_per_op": 0.8,
		"allocs_per_op": 10, "alloc_kb_per_op": 0.5, "heap_live_mb": 7,
	}
	for k, v := range want {
		if got := res.Metrics[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	// One P: a lap cannot use more CPU than wall time, so the reported
	// throughput times the reported CPU per op cannot exceed one CPU.
	if busy := res.Metrics["throughput_rps"] * res.Metrics["cpu_ms_per_op"] / 1e3; busy > 1 {
		t.Errorf("throughput × cpu per op = %v CPUs", busy)
	}
	if got := res.PerLap["throughput_rps"]; len(got) != 3 || got[0] != 500 || got[2] != 800 {
		t.Errorf("per-lap throughput = %v", got)
	}
	if !res.Noisy {
		t.Error("a best lap that stands alone did not flag the run as noisy")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if got := quartileSpread([]float64{3, 1, 4, 1, 5}); math.Abs(got-3.5/3) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, 3.5/3)
	}
	if got := rangeSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("range spread = %v, want 0.2", got)
	}
}

func TestStrippedLeavesOutEvalUS(t *testing.T) {
	a := []byte(`{"results":[{"eval_us":12,"x":1},{"eval_us":-3}],"eval_us":907}` + "\n")
	b := []byte(`{"results":[{"eval_us":0,"x":1},{"eval_us":44}],"eval_us":1}` + "\n")
	if !bytes.Equal(stripped(a), stripped(b)) {
		t.Errorf("stripped forms differ: %s vs %s", stripped(a), stripped(b))
	}
	if crcStripped(0, a) != crcStripped(0, b) {
		t.Error("crc of stripped forms differs")
	}
	c := []byte(`{"results":[{"eval_us":0,"x":2},{"eval_us":44}],"eval_us":1}` + "\n")
	if crcStripped(0, a) == crcStripped(0, c) {
		t.Error("crc does not see a changed answer")
	}
}

func TestCoveredIsUnionOfIntervals(t *testing.T) {
	spans := []span{{StartNs: 10, EndNs: 20}, {StartNs: 15, EndNs: 30}, {StartNs: 40, EndNs: 45}, {StartNs: 41, EndNs: 44}}
	if got := coveredNs(spans); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

// lapBodies concatenates the request bytes of an instance's lap.
func lapBodies(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	inst, err := findWorkload(name).build(seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for i := range inst.ops {
		all = append(all, byte(inst.ops[i].kind))
		all = append(all, inst.ops[i].body...)
	}
	return all
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{"route_topk", "ingest_mixed"} {
		a, b, c := lapBodies(t, name, 5), lapBodies(t, name, 5), lapBodies(t, name, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different request bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same request bytes", name)
		}
	}
}

func TestMemTransportMatchesHTTPServer(t *testing.T) {
	inst, err := buildShardedCross(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One batch of every distribution of the lap's first ops, posted to
	// every shard both ways; shards answer 200 with per-entry statuses.
	var br api.BatchRequest
	for i := 0; i < 8; i++ {
		r := inst.ops[i].dist
		br.Queries = append(br.Queries, api.BatchQuery{Path: r.Path, Depart: r.Depart, Method: r.Method})
	}
	body := mustJSON(br)
	mem := &http.Client{Transport: inst.transport}
	for host, h := range inst.transport.hosts {
		ts := httptest.NewServer(h)
		post := func(c *http.Client, url string) (int, []byte) {
			resp, err := c.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, b
		}
		mc, mb := post(mem, "http://"+host)
		hc, hb := post(ts.Client(), ts.URL)
		ts.Close()
		if mc != hc || !bytes.Equal(stripped(mb), stripped(hb)) {
			t.Errorf("%s: in-memory transport answered %d %.200s, http server %d %.200s", host, mc, mb, hc, hb)
		}
		if mc != http.StatusOK || len(mb) == 0 {
			t.Errorf("%s: status %d, %d body bytes", host, mc, len(mb))
		}
	}
	if _, err := mem.Get("http://nowhere/healthz"); err == nil {
		t.Error("unknown host did not fail")
	}
}

func TestIngestLapRestoresState(t *testing.T) {
	inst, err := buildIngestMixed(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver()
	var crcs []uint32
	for lap := 0; lap < 4; lap++ {
		st, err := d.lap(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.notOK != 0 {
			t.Fatalf("lap %d: %d responses were not 200", lap, st.notOK)
		}
		crcs = append(crcs, st.crc)
	}
	if crcs[3] != crcs[0] {
		t.Errorf("lap 3 digest %08x differs from lap 0's %08x: lap state is not restored", crcs[3], crcs[0])
	}
}

// benchmarkFile is the parsed ../../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload for one lap, traced: all
// answers must check out, and the result object must carry every
// metric BENCHMARK.json names, with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	type contract struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	for i := range workloads {
		w := &workloads[i]
		// One set-up is enough here: repeating it only steadies setup_s.
		opt, d := options{seed: 4, laps: 1, trace: true, workdir: t.TempDir()}, newDriver()
		p, err := setUp(w, &opt, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure(w, opt, d, p, []float64{p.seconds})
		if err != nil {
			t.Fatal(err)
		}
		if res.SuccessPct != 100 || res.Failed != 0 {
			t.Errorf("%s: success_pct %v (%d failed): %s", w.name, res.SuccessPct, res.Failed, res.FirstError)
		}
		if len(res.AnswersDigest) != 64 {
			t.Errorf("%s: answers_digest %q", w.name, res.AnswersDigest)
		}
		for _, traced := range []bool{false, true} {
			var c contract
			var buf bytes.Buffer
			printJSON(&buf, contractLine(res, traced))
			if err := json.Unmarshal(buf.Bytes(), &c); err != nil {
				t.Fatal(err)
			}
			if !c.Correct || c.Attempted < 1 || c.Failed != 0 {
				t.Errorf("%s: result object %s", w.name, buf.Bytes())
			}
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(c.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(c.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := c.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s: metric %s printed as %+v (present %v), want unit %q", w.name, name, got, ok, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
		}
		// Discrimination: the layers a workload is built around must
		// show up in its trace, and the others must not.
		L := res.Layers
		switch w.name {
		case "cold_chain":
			if L["core.jc_us"] <= 0 || L["cache.hit_ratio"] != 0 || L["routing.bestpath_ms"] != 0 {
				t.Errorf("cold_chain layers: %v", L)
			}
		case "hot_prefix":
			if L["cache.hit_ratio"] < 0.9 {
				t.Errorf("hot_prefix cache.hit_ratio = %v, want ≥ 0.9 after the warm-up lap", L["cache.hit_ratio"])
			}
		case "route_topk":
			if L["routing.bestpath_ms"] <= 0 || L["routing.topk_ms"] <= 0 || L["routing.explored_per_op"] <= 0 {
				t.Errorf("route_topk layers: %v", L)
			}
		case "sharded_cross":
			if L["shard.legs_per_op"] <= 1 || L["shard.cross_share"] < 0.7 || L["core.state_bytes"] <= 0 {
				t.Errorf("sharded_cross layers: %v", L)
			}
		case "ingest_mixed":
			if L["core.publish_ms"] <= 0 || L["mapmatch.us_per_fix"] <= 0 || L["wal.bytes_per_traj"] <= 0 {
				t.Errorf("ingest_mixed layers: %v", L)
			}
		}
	}
}
