package shard

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// --- the relay hop's HTTP ----------------------------------------------

// endpoint is one URL a replica is called at, parsed once in New.
type endpoint struct {
	url *url.URL
	// name is url as http.Client names it in a *url.Error: with its
	// password masked.
	name string
}

// newEndpoint parses raw as http.NewRequest does, empty port dropped.
func newEndpoint(raw string) (endpoint, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return endpoint{}, err
	}
	if i := strings.LastIndexByte(u.Host, ':'); i > strings.LastIndexByte(u.Host, ']') {
		u.Host = strings.TrimSuffix(u.Host, ":")
	}
	name := u.String()
	if _, ok := u.User.Password(); ok {
		name = strings.Replace(name, u.User.String()+"@", u.User.Username()+":***@", 1)
	}
	return endpoint{url: u, name: name}, nil
}

// request is the request http.NewRequestWithContext builds for e,
// without parsing the URL again: body is nil or n bytes long, and
// getBody re-reads it.
func (e *endpoint) request(ctx context.Context, method string, hdr http.Header, body io.ReadCloser, n int, getBody func() (io.ReadCloser, error)) *http.Request {
	r := http.Request{
		Method:        method,
		URL:           e.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          body,
		GetBody:       getBody,
		ContentLength: int64(n),
		Host:          e.url.Host,
	}
	return r.WithContext(ctx)
}

// basicAuth is the Authorization value http.Client sets for a URL with
// userinfo, nil for one without.
func basicAuth(u *url.URL) []string {
	if u.User == nil {
		return nil
	}
	pw, _ := u.User.Password()
	return []string{"Basic " + base64.StdEncoding.EncodeToString([]byte(u.User.Username()+":"+pw))}
}

// send is http.Client.Do as the tier used it, one RoundTrip on the
// coordinator's transport: no redirects, cookies or client timeout, and
// so none of the header copies and redirect state Client.Do allocates
// for them. What the tier relied on is kept: a transport error is a
// *url.Error naming the method and e's URL with its password masked,
// as Client.Do's is, so the 503 texts read as they did; the response
// body is never nil. Shards never redirect, so a 3xx is answered like
// any other non-200: the leg fails and the call retries the next
// replica. A URL's userinfo is in the header New built.
func (c *Coordinator) send(req *http.Request, e *endpoint) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	switch {
	case err != nil:
		if tlsErr, ok := err.(tls.RecordHeaderError); ok && string(tlsErr.RecordHeader[:]) == "HTTP/" {
			err = http.ErrSchemeMismatch
		}
	case resp == nil:
		err = fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", c.rt)
	case resp.Body == nil && resp.ContentLength > 0 && req.Method != http.MethodHead:
		err = fmt.Errorf("http: RoundTripper implementation (%T) returned a *Response with content length %d but a nil Body", c.rt, resp.ContentLength)
	case resp.Body == nil:
		resp.Body = http.NoBody
	}
	if err != nil {
		return nil, &url.Error{Op: req.Method[:1] + strings.ToLower(req.Method[1:]), URL: e.name, Err: err}
	}
	return resp, nil
}

// jsonContentType is every leg's Content-Type value; nothing writes
// through it.
var jsonContentType = []string{"application/json"}

// legHeader is a replica's leg header for one budget.
type legHeader struct {
	ms int64
	h  http.Header
}

// header returns a leg header carrying a budget of ms milliseconds (0:
// none). A header is built once per replica and budget and never
// written again — a transport may still read it after its leg has
// reported — so legs with the budget of the one before them share it.
func (rs *replicaState) header(ms int64) http.Header {
	if lh := rs.hdr.Load(); lh != nil && lh.ms == ms {
		return lh.h
	}
	h := http.Header{"Content-Type": jsonContentType}
	if ms > 0 {
		h[api.BudgetHeader] = []string{strconv.FormatInt(ms, 10)}
	}
	if rs.auth != nil {
		h["Authorization"] = rs.auth
	}
	rs.hdr.Store(&legHeader{ms: ms, h: h})
	return h
}

// maxAnswer caps the shard answer a leg reads.
const maxAnswer = 64 << 20

// --- the pooled call ---------------------------------------------------

// call is one wave's /v1/batch call to one region's replica group: the
// entries and their marshalled body, the legs racing to answer it, the
// hedge timer and the channel the legs report on. Calls are pooled by
// the Coordinator.
//
// Ownership: runWave holds its call from newCall to release — it
// builds the body, waits in do and applies the winning answer, which
// is the winning leg's storage — and every leg holds the call from its
// launch until it has reported. Hedged and losing legs outlive do, so
// the call goes back to the pool only when its last holder lets go:
// no pooled storage is reachable from a running leg. A leg fences its
// request bodies before it reports, so a transport that still reads
// one gets an error, never the next call's bytes; its header is never
// written after it is built (see replicaState.header).
type call struct {
	c   *Coordinator
	ctx context.Context
	ss  *shardState
	// queries, ids and body are the wave's request: its entries, the ids
	// of the relayed segments' paths, and the bytes every leg sends.
	queries []api.BatchQuery
	ids     []int64
	body    []byte
	// pick is the rotation of candidate replicas the legs take in turn
	// from off; cands is its storage for a group of several.
	pick     []*replicaState
	off      int
	cands    []*replicaState
	legs     []*leg // legs[:launched] are this call's
	launched int
	results  chan *leg
	timer    *time.Timer
	holders  atomic.Int32
}

// poisonReleased scrambles a released call's body and answers in test
// binaries, so a leg that outlived its call reads garbage instead of
// passing by luck.
var poisonReleased = testing.Testing()

// maxPooledBytes bounds the body and answer storage a pooled call keeps.
const maxPooledBytes = 64 << 10

// newCall takes a call from the pool for one wave to ss, held by the
// caller.
func (c *Coordinator) newCall(ctx context.Context, ss *shardState) *call {
	cl := c.calls.Get().(*call)
	cl.ctx, cl.ss = ctx, ss
	cl.holders.Store(1)
	return cl
}

// add appends one entry: a proxied one as the client sent it, a
// relayed segment with its path in the call's storage.
func (cl *call) add(p *pendingQuery) {
	if p.kind != "state" {
		cl.queries = append(cl.queries, p.q)
		return
	}
	seg := p.segs[p.seg]
	if cap(cl.ids)-len(cl.ids) < len(seg.Path) {
		cl.ids = make([]int64, 0, max(2*cap(cl.ids), len(seg.Path))) // earlier entries keep the old array
	}
	start := len(cl.ids)
	for _, e := range seg.Path {
		cl.ids = append(cl.ids, int64(e))
	}
	cl.queries = append(cl.queries, api.BatchQuery{
		Kind:   "state",
		Path:   cl.ids[start:len(cl.ids):len(cl.ids)],
		Depart: p.q.Depart,
		Method: string(p.method),
		UILo:   p.uiLo,
		UIHi:   p.uiHi,
		State:  p.state,
	})
}

// do posts the call's entries to one replica of its group with hedged
// retry: legs race whole-call attempts — connect, send, read, decode —
// so a replica that answers garbage counts as failed just like one
// that answers nothing. The first leg goes to the round-robin pick
// among breaker-admitted replicas; a leg that fails outright launches
// the next leg immediately against the NEXT replica in rotation, and a
// leg that is merely slow (HedgeAfter) gets raced the same way. With
// replicas configured the call may try every sibling before giving up,
// so a single replica's death costs one leg's latency, never a 503.
// The answer is the winning leg's storage, valid until release.
func (cl *call) do() (*api.BatchResponse, error) {
	body, err := api.AppendBatchRequest(cl.body[:0], &api.BatchRequest{Queries: cl.queries})
	if err != nil {
		return nil, err
	}
	cl.body = body
	c := cl.c
	cl.pick, cl.off = cl.ss.candidates(time.Now(), cl.cands[:0])
	if len(cl.ss.replicas) > 1 {
		cl.cands = cl.pick // keep the storage it grew
	}
	// At least two legs even with one replica (the classic same-target
	// hedge); with more replicas, enough legs to try each sibling once.
	maxLegs := max(2, len(cl.pick))
	next := func(hedge bool) {
		// A retry or hedge leg draws on the caller's remaining budget;
		// once the context is dead there is no budget left to spend.
		if cl.launched >= maxLegs || cl.ctx.Err() != nil {
			return
		}
		if hedge {
			c.hedges.Add(1)
		}
		cl.launch()
	}
	cl.launch()
	if cl.timer == nil {
		cl.timer = time.NewTimer(c.cfg.HedgeAfter)
	} else {
		cl.timer.Reset(c.cfg.HedgeAfter)
	}
	defer cl.timer.Stop() // no stale tick after Stop (Go 1.23 timers)
	var lastErr error
	for reported := 0; reported < cl.launched; {
		select {
		case l := <-cl.results:
			reported++
			l.rs.observe(l.err, time.Now())
			if l.err == nil {
				return &l.resp, nil
			}
			l.rs.callFailures.Add(1)
			lastErr = l.err
			next(false) // a failed leg retries immediately on the next replica
		case <-cl.timer.C:
			next(true) // a slow leg races the next replica
		case <-cl.ctx.Done():
			return nil, cl.ctx.Err()
		}
	}
	return nil, lastErr
}

// launch starts the next leg, against the next replica in rotation.
func (cl *call) launch() {
	rs := cl.pick[(cl.off+cl.launched)%len(cl.pick)]
	rs.calls.Add(1)
	if cl.launched == len(cl.legs) {
		l := new(leg)
		l.getBody = l.rewind
		cl.legs = append(cl.legs, l)
	}
	l := cl.legs[cl.launched]
	cl.launched++
	l.cl, l.rs = cl, rs
	cl.holders.Add(1)
	go l.run()
}

// release lets go of the call. The last holder scrubs it — the legs'
// reports nobody read, their answers, the body — and pools it.
func (cl *call) release() {
	if cl.holders.Add(-1) != 0 {
		return
	}
	for len(cl.results) > 0 {
		<-cl.results
	}
	for _, l := range cl.legs[:cl.launched] {
		l.reset()
	}
	if poisonReleased {
		for i := range cl.body {
			cl.body[i] = ^cl.body[i]
		}
		for i := range cl.ids {
			cl.ids[i] = ^cl.ids[i]
		}
	}
	clear(cl.queries)
	clear(cl.cands)
	cl.queries, cl.ids, cl.body = cl.queries[:0], cl.ids[:0], cl.body[:0]
	if cap(cl.body) > maxPooledBytes {
		cl.body = nil
	}
	cl.ctx, cl.ss, cl.pick, cl.off, cl.launched = nil, nil, nil, 0, 0
	cl.c.calls.Put(cl)
}

// leg is one attempt of a call against one replica, in a slot of the
// call that the next call taking the slot reuses: the answer's bytes
// and what was decoded from them.
type leg struct {
	cl      *call
	rs      *replicaState
	body    *legBody
	getBody func() (io.ReadCloser, error) // rewind, bound once
	limit   io.LimitedReader
	answer  bytes.Buffer
	sc      api.Scratch
	resp    api.BatchResponse
	err     error
}

// run posts the leg, fences its bodies and reports.
func (l *leg) run() {
	cl := l.cl
	l.err = l.post()
	l.body.fence()
	cl.results <- l
	cl.release()
}

func (l *leg) post() error {
	cl, c := l.cl, l.cl.c
	// The leg's clock folds in the caller's end-to-end deadline; a
	// caller's deadline that comes first is the leg's as it stands.
	ctx, cancel := api.Tighten(cl.ctx, c.cfg.Timeout)
	defer cancel()
	// Forward the leg's remaining budget so the shard stops evaluating
	// the moment this leg's clock runs out.
	var ms int64
	if dl, ok := ctx.Deadline(); ok {
		ms = api.BudgetMillis(time.Until(dl))
	}
	l.body = &legBody{}
	l.body.r.Reset(cl.body)
	hresp, err := c.send(l.rs.batch.request(ctx, http.MethodPost, l.rs.header(ms), l.body, len(cl.body), l.getBody), &l.rs.batch)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	l.limit = io.LimitedReader{R: hresp.Body, N: maxAnswer}
	if _, err := l.answer.ReadFrom(&l.limit); err != nil {
		return err
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard answered %d: %s", hresp.StatusCode, firstLine(l.answer.Bytes()))
	}
	l.resp = api.BatchResponse{}
	if err := api.UnmarshalBatchResponse(l.answer.Bytes(), &l.resp, &l.sc); err != nil {
		return fmt.Errorf("undecodable shard response: %v", err)
	}
	if len(l.resp.Results) != len(cl.queries) {
		return fmt.Errorf("shard answered %d results for %d queries", len(l.resp.Results), len(cl.queries))
	}
	return nil
}

// rewind is the request's GetBody: the transport re-sends the body on
// a fresh connection after a stale keep-alive one failed. The copy is
// fenced with the leg's body.
func (l *leg) rewind() (io.ReadCloser, error) {
	b := &legBody{of: l.body}
	b.r.Reset(l.cl.body)
	return b, nil
}

// reset readies the slot for the next call.
func (l *leg) reset() {
	if poisonReleased {
		b := l.answer.Bytes()
		for i := range b {
			b[i] = ^b[i]
		}
	}
	l.sc.Reset()
	l.cl, l.rs, l.body, l.limit, l.resp, l.err = nil, nil, nil, io.LimitedReader{}, api.BatchResponse{}, nil
	l.answer.Reset()
	if l.answer.Cap() > maxPooledBytes {
		l.answer = bytes.Buffer{}
	}
}

// legBody is a leg's request body over its call's bytes. The leg
// fences it before it reports: a Read after that fails, and a Read
// under way finishes first, so once the call is pooled no transport
// goroutine reads its bytes. A rewound copy is fenced with the body it
// copies (of).
type legBody struct {
	of     *legBody
	mu     sync.Mutex
	fenced bool
	r      bytes.Reader
}

var errLegOver = errors.New("shard: the relay leg is over")

func (b *legBody) Read(p []byte) (int, error) {
	f := b
	if b.of != nil {
		f = b.of
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fenced {
		return 0, errLegOver
	}
	return b.r.Read(p)
}

// Close is a no-op: the leg's fence, not the transport, ends the body.
func (b *legBody) Close() error { return nil }

func (b *legBody) fence() {
	b.mu.Lock()
	b.fenced = true
	b.mu.Unlock()
}
