package api

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

// appendJSON appends v's JSON encoding and the newline json.Encoder
// ends a value with. The two hot answer shapes take the append encoder
// below; everything else is encoding/json's own work.
func appendJSON(b []byte, v any) ([]byte, error) {
	e := encoder{b: b}
	switch v := v.(type) {
	case *DistributionResponse:
		e.distribution(v)
	case BatchResponse:
		e.batch(v)
	default:
		e.marshal(v)
	}
	e.raw("\n")
	return e.b, e.err
}

// encoder writes exactly the bytes encoding/json writes for the same
// value (FuzzWireCodec holds it to that): fields in declaration order
// under their tags, omitempty honoured, nil slices and pointers as
// null, floats and strings as json's floatEncoder and HTML-escaping
// string encoder render them. It exists because a cached answer is
// otherwise mostly the cost of describing its own shape to a
// reflection walker again.
type encoder struct {
	b []byte
	// err is the first refusal. Encoding runs on regardless; the
	// caller discards the bytes.
	err error
}

var errNotFinite = errors.New("api: NaN and ±Inf have no JSON encoding")

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float is json's floatEncoder for float64: shortest round-trip
// digits, 'e' notation below 1e-6 and from 1e21 up (as ES6 prints
// numbers) with a two-digit negative exponent's leading zero dropped,
// and a refusal of what JSON cannot say.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = errNotFinite
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str appends s as a JSON string. Printable ASCII with nothing to
// escape — every method name, kind and most messages — is copied
// between quotes; any other string is encoding/json's to escape
// (quotes, control bytes, <>& as \u00XX, invalid UTF-8).
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.marshal(s)
			return
		}
	}
	e.raw(`"`)
	e.raw(s)
	e.raw(`"`)
}

// bytes is json's []byte encoding: standard padded base64 in quotes,
// whose alphabet has nothing to escape, and null for a nil slice.
func (e *encoder) bytes(b []byte) {
	if b == nil {
		e.raw("null")
		return
	}
	e.raw(`"`)
	e.b = base64.StdEncoding.AppendEncode(e.b, b)
	e.raw(`"`)
}

func (e *encoder) ints(vs []int64) {
	e.raw("[")
	for i, v := range vs {
		if i > 0 {
			e.raw(",")
		}
		e.int(v)
	}
	e.raw("]")
}

func (e *encoder) marshal(v any) {
	enc, err := json.Marshal(v)
	if err != nil && e.err == nil {
		e.err = err
	}
	e.b = append(e.b, enc...)
}

func (e *encoder) distribution(r *DistributionResponse) {
	if r == nil {
		e.raw("null")
		return
	}
	e.raw(`{"method":`)
	e.str(r.Method)
	e.raw(`,"interval":`)
	e.int(int64(r.Interval))
	e.raw(`,"mean_s":`)
	e.float(r.MeanS)
	e.raw(`,"p10_s":`)
	e.float(r.P10S)
	e.raw(`,"p50_s":`)
	e.float(r.P50S)
	e.raw(`,"p90_s":`)
	e.float(r.P90S)
	if r.ProbWithin != nil {
		e.raw(`,"prob_within":`)
		e.float(*r.ProbWithin)
	}
	e.raw(`,"buckets":`)
	e.buckets(r.Buckets)
	e.raw(`,"decomp_paths":`)
	e.int(int64(r.DecompPaths))
	e.raw(`,"max_rank":`)
	e.int(int64(r.MaxRank))
	e.raw(`,"eval_us":`)
	e.int(r.EvalUS)
	e.raw("}")
}

func (e *encoder) buckets(bs []Bucket) {
	if bs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	// Adjacent buckets share a boundary: bucket i's lo is bucket i-1's
	// hi, bit for bit, so its text is copied, not formatted again.
	// hi0:hi1 is where the previous hi sits in e.b.
	hi0, hi1 := 0, 0
	for i := range bs {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"lo":`)
		if i > 0 && math.Float64bits(bs[i].Lo) == math.Float64bits(bs[i-1].Hi) {
			e.b = append(e.b, e.b[hi0:hi1]...)
		} else {
			e.float(bs[i].Lo)
		}
		e.raw(`,"hi":`)
		hi0 = len(e.b)
		e.float(bs[i].Hi)
		hi1 = len(e.b)
		e.raw(`,"pr":`)
		e.float(bs[i].Pr)
		e.raw("}")
	}
	e.raw("]")
}

func (e *encoder) batch(r BatchResponse) {
	if r.Results == nil {
		e.raw(`{"results":null}`)
		return
	}
	e.raw(`{"results":[`)
	for i := range r.Results {
		res := &r.Results[i]
		if i > 0 {
			e.raw(",")
		}
		if res.Route != nil || res.TopK != nil {
			e.marshal(res)
			continue
		}
		e.raw(`{"kind":`)
		e.str(res.Kind)
		e.raw(`,"status":`)
		e.int(int64(res.Status))
		if res.Error != "" {
			e.raw(`,"error":`)
			e.str(res.Error)
		}
		if res.Distribution != nil {
			e.raw(`,"distribution":`)
			e.distribution(res.Distribution)
		}
		if res.State != nil {
			e.raw(`,"state":`)
			e.state(res.State)
		}
		e.raw("}")
	}
	e.raw("]}")
}

func (e *encoder) state(s *StateResult) {
	e.raw(`{"state":`)
	e.bytes(s.State)
	e.raw(`,"ui_lo":`)
	e.float(s.UILo)
	e.raw(`,"ui_hi":`)
	e.float(s.UIHi)
	e.raw(`,"factors":`)
	e.int(int64(s.Factors))
	e.raw(`,"max_rank":`)
	e.int(int64(s.MaxRank))
	e.raw("}")
}

// MarshalBatchRequest is json.Marshal for the body of a relay leg, the
// coordinator's /v1/batch call to a shard: the same bytes, written
// without reflection, and on a refusal (a NaN or ±Inf) json.Marshal's
// own error. The bytes are a fresh allocation the caller owns.
func MarshalBatchRequest(r *BatchRequest) ([]byte, error) {
	// Sized once for a relay leg: 160 bytes hold a state entry's keys
	// and widest numbers, and the variable parts are added to that. A
	// fuller entry (a proxied route) may cost one more allocation.
	n := len(`{"queries":[]}`)
	for i := range r.Queries {
		q := &r.Queries[i]
		n += 160 + len(q.Kind) + len(q.Method) + 20*len(q.Path) + base64.StdEncoding.EncodedLen(len(q.State))
	}
	e := encoder{b: make([]byte, 0, n)}
	e.batchRequest(r)
	if e.err != nil {
		_, err := json.Marshal(r)
		return nil, err
	}
	return e.b, nil
}

func (e *encoder) batchRequest(r *BatchRequest) {
	if r.Queries == nil {
		e.raw(`{"queries":null}`)
		return
	}
	e.raw(`{"queries":[`)
	for i := range r.Queries {
		if i > 0 {
			e.raw(",")
		}
		e.query(&r.Queries[i])
	}
	e.raw("]}")
}

// query writes one entry under omitempty: a zero number (-0 too), an
// empty string and an empty slice are left out. Depart, never left
// out, ends the members that may open the object, so each of those is
// followed by its comma and each after it preceded by one.
func (e *encoder) query(q *BatchQuery) {
	e.raw("{")
	if q.Kind != "" {
		e.raw(`"kind":`)
		e.str(q.Kind)
		e.raw(",")
	}
	if len(q.Path) > 0 {
		e.raw(`"path":`)
		e.ints(q.Path)
		e.raw(",")
	}
	if q.Source != 0 {
		e.raw(`"source":`)
		e.int(q.Source)
		e.raw(",")
	}
	if q.Dest != 0 {
		e.raw(`"dest":`)
		e.int(q.Dest)
		e.raw(",")
	}
	e.raw(`"depart":`)
	e.float(q.Depart)
	if q.Budget != 0 {
		e.raw(`,"budget":`)
		e.float(q.Budget)
	}
	if q.Method != "" {
		e.raw(`,"method":`)
		e.str(q.Method)
	}
	if q.K != 0 {
		e.raw(`,"k":`)
		e.int(int64(q.K))
	}
	if q.UILo != 0 {
		e.raw(`,"ui_lo":`)
		e.float(q.UILo)
	}
	if q.UIHi != 0 {
		e.raw(`,"ui_hi":`)
		e.float(q.UIHi)
	}
	if len(q.State) > 0 {
		e.raw(`,"state":`)
		e.bytes(q.State)
	}
	e.raw("}")
}
