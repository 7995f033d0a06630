package api

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxInFlight is the evaluation slot count of a tier configured
// with none. Query evaluation is CPU-bound, so a small multiple of
// typical core counts is plenty; excess requests queue.
const DefaultMaxInFlight = 32

// Gate is the serving chassis of both tiers: admission (a slot
// semaphore and the MaxQueue shedder), the deadline-to-status mapping,
// and the endpoint sequences, around the embedded Wire that reads
// requests and writes answers. A tier supplies only its evaluators.
type Gate struct {
	Wire

	Queued    atomic.Int64  // requests waiting for a slot
	Abandoned atomic.Uint64 // clients gone before their evaluation started
	Shed      atomic.Uint64 // requests answered 429 by the shedder

	sem        chan struct{}
	maxQueue   int64
	timeout    time.Duration
	overloaded string
}

// NewGate returns a gate with maxInFlight slots (≤ 0 means
// DefaultMaxInFlight). With maxQueue > 0, a request arriving while
// maxQueue others wait for a slot is answered 429 + Retry-After with
// the overloaded message instead of joining them. timeout > 0 bounds
// every query request (clients tighten it with BudgetHeader).
func NewGate(maxInFlight, maxQueue int, timeout time.Duration, overloaded string) *Gate {
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	return &Gate{
		sem:        make(chan struct{}, maxInFlight),
		maxQueue:   int64(maxQueue),
		timeout:    timeout,
		overloaded: overloaded,
	}
}

// MaxInFlight is the slot count.
func (g *Gate) MaxInFlight() int { return cap(g.sem) }

// Acquire takes a slot, giving up when ctx ends first; the caller must
// Release exactly once when it reports true. A batch's entries pass
// the batch's context, so one disconnected client frees every slot its
// entries were waiting for. Giving up counts Abandoned only when the
// client hung up: an expired deadline is a 504, not a vanished client.
func (g *Gate) Acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		// Already-dead context: don't let select's random choice burn a
		// slot on an evaluation nobody will receive.
		g.abandon(ctx)
		return false
	}
	select {
	case g.sem <- struct{}{}:
		// A free slot never counts toward queue depth, so an idle tier
		// cannot shed.
		return true
	default:
	}
	g.Queued.Add(1)
	defer g.Queued.Add(-1)
	select {
	case g.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		g.abandon(ctx)
		return false
	}
}

// abandon counts an ended ctx as Abandoned when it was cancelled.
func (g *Gate) abandon(ctx context.Context) {
	if errors.Is(ctx.Err(), context.Canceled) {
		g.Abandoned.Add(1)
	}
}

// Release returns a slot taken by Acquire.
func (g *Gate) Release() { <-g.sem }

// ShedIfOverloaded answers 429 + Retry-After when the slot queue is at
// its bound, rather than stacking another waiter behind the slots, and
// reports whether it did. It runs before the body is read, so a shed
// request costs close to nothing. 429 means "healthy but full, back
// off". A coordinator leg that gets one fails like any non-200: the
// call retries on the next sibling replica at once, and the failure
// counts toward that replica's breaker, whose cooldown is the back-off
// Retry-After asks for.
func (g *Gate) ShedIfOverloaded(w http.ResponseWriter) bool {
	if g.maxQueue <= 0 || g.Queued.Load() < g.maxQueue {
		return false
	}
	g.Shed.Add(1)
	w.Header().Set("Retry-After", "1")
	g.Error(w, http.StatusTooManyRequests, g.overloaded)
	return true
}

// Expired maps a request whose context ended before its answer: a
// deadline (the tier's or the header's) is a 504 the still-listening
// client is owed; a vanished client gets nothing (status 0).
func (g *Gate) Expired(ctx context.Context) (int, string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline exceeded"
	}
	return 0, ""
}

// Answer writes an evaluator's outcome: status 0 writes nothing (the
// client is gone), 200 writes resp, and anything else the error
// envelope with msg.
func (g *Gate) Answer(w http.ResponseWriter, status int, msg string, resp any) {
	switch status {
	case 0:
	case http.StatusOK:
		g.Write(w, status, resp)
	default:
		g.Error(w, status, msg)
	}
}

// Endpoint is the query-endpoint sequence of both tiers: shed, read
// the body into a pooled Req and Scratch, derive the request's
// deadline, evaluate, and Answer with eval's outcome; then zero both
// and pool them again. A panicking evaluation is a logged 500
// (evaluators release their slots by defer); http.ErrAbortHandler
// keeps its meaning and propagates. Answer encodes before it writes,
// so nothing has been written when the 500 goes out.
func Endpoint[Req, Resp any](g *Gate, eval func(context.Context, *Req, *Scratch) (Resp, int, string)) http.HandlerFunc {
	pool := &sync.Pool{New: func() any { return new(request[Req]) }}
	return func(w http.ResponseWriter, r *http.Request) {
		if g.ShedIfOverloaded(w) {
			return
		}
		q := pool.Get().(*request[Req])
		defer q.release(pool)
		if !g.Read(w, r, &q.req, &q.s, MaxQueryBody) {
			return
		}
		ctx, cancel, ok := g.Context(w, r, g.timeout)
		if !ok {
			return
		}
		defer cancel()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				log.Printf("api: panic evaluating %s: %v\n%s", r.URL.Path, p, debug.Stack())
				g.Error(w, http.StatusInternalServerError, internalError)
			}
		}()
		resp, status, msg := eval(ctx, &q.req, &q.s)
		g.Answer(w, status, msg, resp)
	}
}

// request is one request's pooled storage: its body and its Scratch.
type request[Req any] struct {
	req Req
	s   Scratch
}

// release zeroes q and returns it to pool.
func (q *request[Req]) release(pool *sync.Pool) {
	var zero Req
	q.req = zero
	q.s.Reset()
	pool.Put(q)
}

// Batch is Endpoint for /v1/batch: an empty or oversize batch is a 400
// before any deadline starts, a non-200 status from eval is Answered
// as a whole-request outcome, and the results go out in one 200
// envelope unless the client is gone. An expired deadline is not a
// vanished client: the caller is still listening, and every entry the
// deadline caught carries its own 504. The entries, the results and
// the envelope live in the request's pooled Scratch.
func (g *Gate) Batch(eval func(context.Context, []BatchQuery, *Scratch) ([]BatchResult, int, string)) http.HandlerFunc {
	pool := &sync.Pool{New: func() any { return new(request[BatchRequest]) }}
	return func(w http.ResponseWriter, r *http.Request) {
		if g.ShedIfOverloaded(w) {
			return
		}
		q := pool.Get().(*request[BatchRequest])
		defer q.release(pool)
		if !g.Read(w, r, &q.req, &q.s, MaxQueryBody) {
			return
		}
		if len(q.req.Queries) == 0 {
			g.Error(w, http.StatusBadRequest, "batch must contain at least one query")
			return
		}
		if len(q.req.Queries) > MaxBatch {
			g.Error(w, http.StatusBadRequest,
				fmt.Sprintf("batch has %d queries, cap is %d", len(q.req.Queries), MaxBatch))
			return
		}
		ctx, cancel, ok := g.Context(w, r, g.timeout)
		if !ok {
			return
		}
		defer cancel()
		results, status, msg := eval(ctx, q.req.Queries, &q.s)
		if status != http.StatusOK {
			g.Answer(w, status, msg, nil)
			return
		}
		if r.Context().Err() != nil {
			return // client gone; entries already accounted their shed work
		}
		q.s.batch.Results = results
		g.Write(w, http.StatusOK, &q.s.batch)
	}
}

// Healthz answers GET /healthz, uncounted so liveness probes don't
// inflate the served count.
func (g *Gate) Healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.Error(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	g.WriteUncounted(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Connection-hygiene bounds for every listener either tier serves.
// ReadHeaderTimeout caps how long a connection may dribble its request
// headers — the classic slow-loris hold — and IdleTimeout reclaims
// keep-alive connections that have gone quiet. Variables, not
// constants, so the regression test can shrink them to something
// observable.
var (
	ServeReadHeaderTimeout = 10 * time.Second
	ServeIdleTimeout       = 120 * time.Second
)

// ServeListener serves handler on ln, which it owns and closes, until
// ctx is cancelled, then drains in-flight requests for up to drain
// before forcing connections closed. drain == 0 closes immediately;
// drain < 0 means the 10-second default. It returns nil after a clean
// shutdown.
func ServeListener(ctx context.Context, handler http.Handler, ln net.Listener, drain time.Duration) error {
	if drain < 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: ServeReadHeaderTimeout,
		IdleTimeout:       ServeIdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		var err error
		if drain == 0 {
			err = srv.Close()
		} else {
			sctx, cancel := context.WithTimeout(context.Background(), drain)
			defer cancel()
			err = srv.Shutdown(sctx)
			if errors.Is(err, context.DeadlineExceeded) {
				// Drain window elapsed with requests still running:
				// force the remaining connections closed, as promised.
				// That is still an orderly stop.
				err = srv.Close()
			}
		}
		// Shutdown/Close make Serve return, so this cannot block;
		// surface a real serve failure instead of swallowing it.
		if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return err
	}
}
