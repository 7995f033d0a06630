package api

import (
	"bytes"
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
// The plain form is what clients that marshal these structs send: one
// object (for a batch, {"queries":[object,...]}) whose keys are the
// exact lower-case tag names path, depart, method, budget — plus kind
// in a batch entry — each at most once; path an array of integers of at
// most 18 digits; depart and budget JSON-grammar numbers; method and
// kind strings of printable ASCII without escapes; JSON whitespace
// anywhere between tokens. Like json.Decoder it stops at the end of
// the first value. Everything else declines: null, other or
// differently-cased keys, duplicates, fractions or exponents in a
// path, escapes, non-ASCII, any syntax error.
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
		if !p.token('{') || !p.token('"') || !p.isKey("queries") || !p.token(':') || !p.token('[') {
			return false
		}
		// One '{' per entry (and the outer one) sizes the slice in one
		// allocation; the bound keeps a body of braces from sizing it.
		queries := make([]BatchQuery, 0, min(bytes.Count(body, []byte{'{'})-1, 64))
		if !p.token(']') {
			for more := true; more; more = p.token(',') {
				var q BatchQuery
				if !p.object(&q, true) {
					return false
				}
				queries = append(queries, q)
			}
			if !p.token(']') {
				return false
			}
		}
		if !p.token('}') {
			return false
		}
		dst.Queries = queries
		return true
	}
	return false
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

func (p *plainParser) str() (string, bool) {
	if !p.token('"') {
		return "", false
	}
	s, ok := p.text()
	return string(s), ok
}

func (p *plainParser) digits() bool {
	from := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i > from
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

// object takes one request object into q: a DistributionRequest's four
// members, and kind when entry says q is a batch entry.
func (p *plainParser) object(q *BatchQuery, entry bool) bool {
	if !p.token('{') {
		return false
	}
	if p.token('}') {
		return true
	}
	const (
		sawPath = 1 << iota
		sawDepart
		sawMethod
		sawBudget
		sawKind
	)
	seen := 0
	for more := true; more; more = p.token(',') {
		if !p.token('"') {
			return false
		}
		key, ok := p.text()
		if !ok || !p.token(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "path":
			bit = sawPath
			q.Path, ok = p.ints()
		case "depart":
			bit = sawDepart
			q.Depart, ok = p.float()
		case "budget":
			bit = sawBudget
			q.Budget, ok = p.float()
		case "method":
			bit = sawMethod
			q.Method, ok = p.str()
		case "kind":
			if !entry {
				return false // a bare distribution request has no such field
			}
			bit = sawKind
			q.Kind, ok = p.str()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return p.token('}')
}
