package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Wire is the HTTP side of a serving tier: it reads request bodies,
// derives request contexts and writes answers, for the single-process
// server and the sharded coordinator alike, so the two cannot drift
// apart by a byte or a message. Each tier's Gate embeds one.
type Wire struct {
	Served   atomic.Uint64 // query answers written 2xx
	Rejected atomic.Uint64 // answers written 4xx/5xx
}

// MaxQueryBody caps the body of every query endpoint on both tiers.
const MaxQueryBody = 1 << 20

// internalError is the body of the 500 that stands in for an answer
// the encoder refused (a NaN or ±Inf that slipped into a histogram) or
// an evaluation that panicked.
const internalError = "internal error during computation"

// contentTypeJSON is shared by every response header map; nothing
// writes through a header value slice.
var contentTypeJSON = []string{"application/json"}

// Read decodes r's JSON POST body into dst, which must be zero. On
// failure it writes the 405 or 400 itself and returns false. The plain
// form's ids and batch entries are taken from s (nil takes fresh
// memory).
//
// The body is read whole into a pooled buffer under the maxBytes cap.
// A body in the plain form (see parsePlain) is decoded without
// reflection; any other — richer, malformed, or cut short by the cap —
// is replayed through encoding/json from the same bytes followed by
// the same read error, so which decoder ran is a property of the
// input, and every verdict and message is encoding/json's own.
func (wr *Wire) Read(w http.ResponseWriter, r *http.Request, dst any, s *Scratch, maxBytes int64) bool {
	if r.Method != http.MethodPost {
		wr.Error(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return false
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	_, rerr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	if rerr == nil && parsePlain(dst, buf.Bytes(), s) {
		return true
	}
	var src io.Reader = buf
	if rerr != nil {
		src = io.MultiReader(buf, failingReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		wr.Error(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// failingReader replays the error that ended a body read.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// Context derives the evaluation context for one request: the tighter
// of the tier's default timeout, the caller's BudgetHeader and the
// request's own deadline, layered on the request's own context so a
// client disconnect still cancels immediately. ok = false means the header was garbage and a 400 was
// already written. The returned cancel must always be called.
func (wr *Wire) Context(w http.ResponseWriter, r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc, bool) {
	budget, hasBudget, err := ParseBudget(r.Header.Get(BudgetHeader))
	if err != nil {
		wr.Error(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	if hasBudget && (timeout <= 0 || budget < timeout) {
		timeout = budget
	}
	if timeout <= 0 {
		return r.Context(), func() {}, true
	}
	// A request whose own context already ends first (a relay leg
	// served in process, whose leg deadline the budget was read from)
	// derives nothing.
	ctx, cancel := Tighten(r.Context(), timeout)
	return ctx, cancel, true
}

// Write answers a query with v as JSON and counts it; probe-style
// endpoints (/healthz, /v1/stats) use WriteUncounted so liveness
// checks and metric pollers don't inflate the query-throughput stat.
func (wr *Wire) Write(w http.ResponseWriter, code int, v any) {
	if wr.WriteUncounted(w, code, v) {
		wr.Served.Add(1)
	}
}

// WriteUncounted encodes v into a pooled buffer and only then writes
// the status line and the body, so a payload the encoder refuses is a
// counted 500 (reported as false), not a 200 with an empty body. The
// bytes are encoding/json's: *DistributionResponse and *BatchResponse
// by the append encoders that reproduce it, everything else by
// encoding/json itself.
func (wr *Wire) WriteUncounted(w http.ResponseWriter, code int, v any) bool {
	buf := GetBuffer()
	defer PutBuffer(buf)
	body, err := appendJSON(buf.AvailableBuffer(), v)
	if err != nil {
		wr.Error(w, http.StatusInternalServerError, internalError)
		return false
	}
	send(w, code, buf, body)
	return true
}

// Error writes the uniform error body and counts a rejection.
func (wr *Wire) Error(w http.ResponseWriter, code int, msg string) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	e := encoder{b: append(buf.AvailableBuffer(), `{"error":`...)}
	e.str(msg)
	e.raw("}\n")
	send(w, code, buf, e.b)
	wr.Rejected.Add(1)
}

// send writes a body that was appended to buf's available space. The
// body is first committed to buf — in place, unless the encoder
// outgrew buf and moved — so that the pool keeps the larger array.
func send(w http.ResponseWriter, code int, buf *bytes.Buffer, body []byte) {
	buf.Write(body)
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	_, _ = w.Write(body) // a vanished client is not the server's error
}

// --- buffer pool -------------------------------------------------------

// maxPooledBuffer is the largest buffer the pool takes back. Requests
// and answers are a few hundred bytes to a few kilobytes; a buffer one
// bulk body grew past 64 KiB is left to the collector, so the pool
// pins nothing to speak of (and sync.Pool itself drops what two
// collections did not reuse).
const maxPooledBuffer = 64 << 10

var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer takes an empty buffer from the pool request bodies are
// read into and answers are encoded into; the coordinator reads shard
// answers into the same pool.
func GetBuffer() *bytes.Buffer { return buffers.Get().(*bytes.Buffer) }

// PutBuffer returns b to the pool unless it outgrew maxPooledBuffer.
// Nothing may reference b's bytes afterwards.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		buffers.Put(b)
	}
}
