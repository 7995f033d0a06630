package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// driver is the benchmark's one client: a closed loop that sends the
// next request of the lap when the previous one has been answered.
// Requests go straight into the front handler's ServeHTTP — no
// sockets, so the numbers are the program's and not the loopback's.
type driver struct {
	w      *memWriter
	body   bodyReader
	hdr    http.Header
	urls   [numOpKinds]*url.URL
	latNs  []int64
	tracer *tracer // set for traced laps only
	// lapStart and lapEnd, when set, run inside a lap right after the
	// untimed restore and right before the untimed teardown.
	lapStart, lapEnd func(*instance)
}

func newDriver() *driver {
	d := &driver{w: newMemWriter(), hdr: http.Header{"Content-Type": {"application/json"}}}
	for k, u := range opURLs {
		d.urls[k] = &url.URL{Path: u}
	}
	return d
}

// lapStats is what one lap measured.
type lapStats struct {
	ops           int
	wallNs, cpuNs int64
	p50, p95, p99 float64 // ms
	mallocs       uint64
	allocBytes    uint64
	gcs           uint32
	crc           uint32 // chained over the stripped responses
	notOK         int    // responses with a status other than 200
}

func (l *lapStats) rps() float64     { return float64(l.ops) / (float64(l.wallNs) / 1e9) }
func (l *lapStats) cpuMsOp() float64 { return float64(l.cpuNs) / 1e6 / float64(l.ops) }
func (l *lapStats) meanUs() float64  { return float64(l.wallNs) / 1e3 / float64(l.ops) }

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// do performs one op and leaves status and body in d.w.
func (d *driver) do(inst *instance, p *op) {
	d.w.reset()
	if p.kind == opPublish {
		st, err := inst.sys.PublishEpoch()
		if err != nil {
			d.w.code = http.StatusInternalServerError
			d.w.buf = append(d.w.buf, err.Error()...)
			return
		}
		d.w.code = http.StatusOK
		d.w.buf = append(d.w.buf, publishAnswer(st)...)
		return
	}
	d.body.Reset(p.body)
	inst.front.ServeHTTP(d.w, &http.Request{
		Method: http.MethodPost, URL: d.urls[p.kind], RequestURI: d.urls[p.kind].Path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: d.hdr, Host: "bench",
		Body: &d.body, ContentLength: int64(len(p.body)),
	})
}

// lap runs the instance's ops once. With capture set, a copy of every
// response body is stored in it (the warm-up lap, for the answer
// check). d.latNs holds the lap's latencies in op order afterwards.
func (d *driver) lap(inst *instance, capture *[][]byte) (lapStats, error) {
	if inst.beginLap != nil {
		if err := inst.beginLap(); err != nil {
			return lapStats{}, fmt.Errorf("restoring lap state: %w", err)
		}
	}
	if d.lapStart != nil {
		d.lapStart(inst)
	}
	if len(d.latNs) != len(inst.ops) {
		d.latNs = make([]int64, len(inst.ops))
	}
	lat := d.latNs
	st := lapStats{ops: len(inst.ops)}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTimeNs()
	t0 := time.Now()
	for i := range inst.ops {
		p := &inst.ops[i]
		root := d.tracer.beginRoot(opNames[p.kind])
		s := time.Now()
		d.do(inst, p)
		lat[i] = int64(time.Since(s))
		d.tracer.end(root)
		if d.w.code != http.StatusOK {
			st.notOK++
		}
		st.crc = crcStripped(st.crc, d.w.buf)
		if capture != nil {
			*capture = append(*capture, bytes.Clone(d.w.buf))
		}
	}
	st.wallNs = int64(time.Since(t0))
	st.cpuNs = cpuTimeNs() - cpu0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcs = m1.NumGC - m0.NumGC

	if d.lapEnd != nil {
		d.lapEnd(inst)
	}
	if inst.endLap != nil {
		if err := inst.endLap(); err != nil {
			return st, fmt.Errorf("tearing down lap state: %w", err)
		}
	}
	st.p50, st.p95, st.p99 = percentilesMs(lat)
	return st, nil
}

// percentilesMs returns the median, 95th and 99th percentile of
// latencies given in nanoseconds, in milliseconds.
func percentilesMs(latNs []int64) (p50, p95, p99 float64) {
	ms := make([]float64, len(latNs))
	for i, ns := range latNs {
		ms[i] = float64(ns) / 1e6
	}
	sort.Float64s(ms)
	return quantile(ms, 0.50), quantile(ms, 0.95), quantile(ms, 0.99)
}
