package api

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strconv"
)

// parsePlain decodes body into dst without reflection when dst is a
// *DistributionRequest or *BatchRequest and body is in the plain form,
// and reports whether it did; dst is untouched otherwise. Accepting
// means the result is exactly what json.Decoder with
// DisallowUnknownFields yields for the same bytes (FuzzWireCodec holds
// it to that); declining means nothing — the caller hands the bytes to
// encoding/json, which owns every verdict this parser does not reach.
//
// The plain form is what clients that marshal these structs send, and
// what the coordinator sends a shard on a relay leg: one object (for a
// batch, {"queries":[object,...]}) whose keys are the exact lower-case
// tag names path, depart, method, budget — plus kind, ui_lo, ui_hi and
// state in a batch entry — each at most once; path an array of
// integers of at most 18 digits; depart, budget, ui_lo and ui_hi
// JSON-grammar numbers; method and kind strings of printable ASCII
// without escapes; state a string of standard padded base64, decoded
// as encoding/json decodes a []byte; JSON whitespace anywhere between
// tokens. Like json.Decoder it stops at the end of the first value.
// Everything else declines: null, other or differently-cased keys,
// duplicates, fractions or exponents in a path, escapes, non-ASCII,
// bad base64, any syntax error.
func parsePlain(dst any, body []byte) bool {
	p := plainParser{b: body}
	switch dst := dst.(type) {
	case *DistributionRequest:
		var q BatchQuery
		if !p.object(&q, false) {
			return false
		}
		*dst = DistributionRequest{Path: q.Path, Depart: q.Depart, Method: q.Method, Budget: q.Budget}
		return true
	case *BatchRequest:
		// One '{' per entry (and the outer one) sizes the slice in one
		// allocation; the bound keeps a body of braces from sizing it.
		size := min(max(bytes.Count(body, []byte{'{'})-1, 0), MaxBatch)
		queries, ok := list(&p, "queries", size, func(q *BatchQuery) bool { return p.object(q, true) })
		if ok {
			dst.Queries = queries
		}
		return ok
	}
	return false
}

// list takes {"<key>":[item,...]}, the envelope of a batch and of its
// answer, into a slice of capacity size.
func list[T any](p *plainParser, key string, size int, item func(*T) bool) ([]T, bool) {
	if !p.token('{') || !p.token('"') || !p.isKey(key) || !p.token(':') || !p.token('[') {
		return nil, false
	}
	out := make([]T, 0, size)
	if !p.token(']') {
		for more := true; more; more = p.token(',') {
			var zero T // item fills it in place: &zero would escape
			out = append(out, zero)
			if !item(&out[len(out)-1]) {
				return nil, false
			}
		}
		if !p.token(']') {
			return nil, false
		}
	}
	return out, p.token('}')
}

// plainParser walks a body left to right; every method reports
// whether the plain form continues and leaves i past what it took.
type plainParser struct {
	b []byte
	i int
}

func (p *plainParser) space() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\n' || p.b[p.i] == '\t' || p.b[p.i] == '\r') {
		p.i++
	}
}

// accept consumes c if it is the very next byte.
func (p *plainParser) accept(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// token skips whitespace and consumes c if it is next.
func (p *plainParser) token(c byte) bool {
	p.space()
	return p.accept(c)
}

// text takes the rest of a string whose opening quote is consumed.
func (p *plainParser) text() ([]byte, bool) {
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *plainParser) isKey(name string) bool {
	k, ok := p.text()
	return ok && string(k) == name
}

// quoted takes a whole string; str copies it out.
func (p *plainParser) quoted() ([]byte, bool) {
	if !p.token('"') {
		return nil, false
	}
	return p.text()
}

func (p *plainParser) str() (string, bool) {
	s, ok := p.quoted()
	return string(s), ok
}

func (p *plainParser) digits() bool {
	from := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i > from
}

// base64 takes a string of standard padded base64 into a fresh slice,
// as encoding/json decodes a []byte: "" is empty, not nil. Invalid
// base64 is json's error to word.
func (p *plainParser) base64() ([]byte, bool) {
	s, ok := p.quoted()
	if !ok {
		return nil, false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	return b[:n], err == nil
}

// float takes one JSON-grammar number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does; a literal ParseFloat refuses (out of range) is
// json's error to word.
func (p *plainParser) float() (float64, bool) {
	p.space()
	start := p.i
	p.accept('-')
	if !p.accept('0') && !p.digits() { // a leading zero stands alone
		return 0, false
	}
	if p.accept('.') && !p.digits() {
		return 0, false
	}
	if p.accept('e') || p.accept('E') {
		if !p.accept('+') {
			p.accept('-')
		}
		if !p.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
}

// integer takes -?(0|[1-9][0-9]*) of at most 18 digits: no overflow to
// detect, and room for any edge id. A fraction or exponent after it
// fails the caller's next token.
func (p *plainParser) integer() (int64, bool) {
	p.space()
	neg := p.accept('-')
	start := p.i
	var v int64
	for ; p.i < len(p.b) && p.b[p.i]-'0' <= 9; p.i++ {
		v = v*10 + int64(p.b[p.i]-'0')
	}
	if n := p.i - start; n == 0 || n > 18 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// ints takes an array of integers. An empty array is empty, not nil,
// as encoding/json leaves it.
func (p *plainParser) ints() ([]int64, bool) {
	if !p.token('[') {
		return nil, false
	}
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	// One allocation for any path a server accepts; a body of commas
	// sizes nothing.
	out := make([]int64, 0, min(bytes.Count(p.b[p.i:p.i+end], []byte{','})+1, 256))
	if p.token(']') {
		return out, true
	}
	for more := true; more; more = p.token(',') {
		v, ok := p.integer()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, p.token(']')
}

// members takes one object member by member. member takes the value
// under key and names the key by one bit, or by 0 when it is not one
// of the object's; a key seen twice declines like an unknown one.
func (p *plainParser) members(member func(key []byte) (bit int, ok bool)) bool {
	if !p.token('{') {
		return false
	}
	if p.token('}') {
		return true
	}
	seen := 0
	for more := true; more; more = p.token(',') {
		if !p.token('"') {
			return false
		}
		key, ok := p.text()
		if !ok || !p.token(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return p.token('}')
}

// object takes one request object into q: a DistributionRequest's four
// members, and kind, ui_lo, ui_hi and state when entry says q is a
// batch entry.
func (p *plainParser) object(q *BatchQuery, entry bool) bool {
	return p.members(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "path":
			q.Path, ok = p.ints()
			return 1, ok
		case "depart":
			q.Depart, ok = p.float()
			return 2, ok
		case "budget":
			q.Budget, ok = p.float()
			return 4, ok
		case "method":
			q.Method, ok = p.str()
			return 8, ok
		}
		if !entry {
			return 0, false // a bare distribution request has no other field
		}
		switch string(key) {
		case "kind":
			q.Kind, ok = p.str()
			return 16, ok
		case "ui_lo":
			q.UILo, ok = p.float()
			return 32, ok
		case "ui_hi":
			q.UIHi, ok = p.float()
			return 64, ok
		case "state":
			q.State, ok = p.base64()
			return 128, ok
		}
		return 0, false
	})
}

// UnmarshalBatchResponse is json.Unmarshal for a /v1/batch answer, the
// body of a relay leg's reply: the same verdict, error and struct. A
// body in the plain form (see ParseBatchResponse) is decoded without
// reflection; any other, a proxied distribution among its entries
// included, is encoding/json's to decode from the same bytes.
func UnmarshalBatchResponse(data []byte, dst *BatchResponse) error {
	if ParseBatchResponse(data, dst) {
		return nil
	}
	return json.Unmarshal(data, dst)
}

// ParseBatchResponse decodes data into dst without reflection when
// data is in the plain form, and reports whether it did; dst is
// untouched otherwise. Accepting means the result is exactly what
// json.Unmarshal yields for the same bytes. Everything the decoded
// value holds is a copy: nothing aliases data.
//
// The plain form is a shard's answer to a relay leg:
// {"results":[entry,...]} and nothing after it but JSON whitespace,
// each entry an object of kind, status and error — plus state, an
// object of state, ui_lo, ui_hi, factors and max_rank — with the
// scalar rules of parsePlain. It declines the rest: other members
// (distribution, route, topk), null, duplicates and anything
// differently cased, all of which json.Unmarshal reads or ignores on
// its own terms.
func ParseBatchResponse(data []byte, dst *BatchResponse) bool {
	p := plainParser{b: data}
	// Every plain entry has one kind: the count sizes the slice in one
	// allocation, and a body of kinds sizes it no larger than a batch.
	size := min(bytes.Count(data, []byte(`"kind"`)), MaxBatch)
	results, ok := list(&p, "results", size, p.result)
	if p.space(); !ok || p.i != len(data) {
		return false
	}
	dst.Results = results
	return true
}

// result takes one answer entry into r.
func (p *plainParser) result(r *BatchResult) bool {
	return p.members(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "kind":
			var k []byte
			k, ok = p.quoted()
			r.Kind = "state" // every relay answer's kind: no copy
			if string(k) != r.Kind {
				r.Kind = string(k)
			}
			return 1, ok
		case "status":
			var v int64
			v, ok = p.integer()
			r.Status = int(v)
			return 2, ok
		case "error":
			r.Error, ok = p.str()
			return 4, ok
		case "state":
			r.State, ok = p.stateResult()
			return 8, ok
		}
		return 0, false
	})
}

// stateResult takes a StateResult object.
func (p *plainParser) stateResult() (*StateResult, bool) {
	st := new(StateResult)
	return st, p.members(func(key []byte) (bit int, ok bool) {
		var v int64
		switch string(key) {
		case "state":
			st.State, ok = p.base64()
			return 1, ok
		case "ui_lo":
			st.UILo, ok = p.float()
			return 2, ok
		case "ui_hi":
			st.UIHi, ok = p.float()
			return 4, ok
		case "factors":
			v, ok = p.integer()
			st.Factors = int(v)
			return 8, ok
		case "max_rank":
			v, ok = p.integer()
			st.MaxRank = int(v)
			return 16, ok
		}
		return 0, false
	})
}
