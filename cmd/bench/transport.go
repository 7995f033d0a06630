package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// memWriter is an http.ResponseWriter that keeps the response in a
// reusable buffer: the driver's stand-in for a connection, with no
// socket and no per-request garbage of its own.
type memWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header)} }

func (w *memWriter) Header() http.Header { return w.hdr }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf = w.buf[:0]
}

// memTransport is the coordinator's http.RoundTripper in the sharded
// workload: it dispatches by host name straight to the shard servers'
// handlers, so a shard leg costs what the two tiers' own code costs
// and nothing of the loopback stack. With a tracer attached every leg
// is recorded as a child span of the request being driven.
type memTransport struct {
	hosts  map[string]http.Handler
	tracer *tracer
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("bench transport: unknown host %q", req.URL.Host)
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	w := newMemWriter()
	span := t.tracer.begin("shard.leg", req.URL.Host)
	h.ServeHTTP(w, req)
	t.tracer.end(span)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.code, http.StatusText(w.code)),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.hdr,
		Body:          io.NopCloser(bytes.NewReader(w.buf)),
		ContentLength: int64(len(w.buf)),
		Request:       req,
	}, nil
}
