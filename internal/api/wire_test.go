package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// --- oracles: what the tiers did before the shared codec ---------------

// refEncode is the writer both tiers used: json.Encoder, HTML escaping
// on, one trailing newline.
func refEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// refRead is the reader both tiers used, verbatim: a json.Decoder with
// DisallowUnknownFields straight over the capped body. It returns the
// status and error body it would have written (0 and nil on success).
func refRead(r *http.Request, dst any, maxBytes int64) (int, []byte) {
	if r.Method != http.MethodPost {
		body, _ := refEncode(Error{Error: "use POST with a JSON body"})
		return http.StatusMethodNotAllowed, body
	}
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		body, _ := refEncode(Error{Error: "invalid JSON body: " + err.Error()})
		return http.StatusBadRequest, body
	}
	return 0, nil
}

func testWire() (*Wire, *atomic.Uint64, *atomic.Uint64) {
	wr := &Wire{}
	return wr, &wr.Served, &wr.Rejected
}

// checkRead holds Wire.Read to refRead on one body and one cap, for
// one request shape: same verdict, same error bytes, same struct.
func checkRead[T any](t *testing.T, body []byte, maxBytes int64) {
	t.Helper()
	var want T
	wantStatus, wantBody := refRead(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &want, maxBytes)

	wr, _, rejected := testWire()
	var got T
	rec := httptest.NewRecorder()
	ok := wr.Read(rec, httptest.NewRequest("POST", "/", bytes.NewReader(body)), &got, maxBytes)
	if ok != (wantStatus == 0) {
		t.Fatalf("%T body %q cap %d: Read ok = %v, reference status %d", want, body, maxBytes, ok, wantStatus)
	}
	if !ok {
		if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), wantBody) {
			t.Fatalf("%T body %q cap %d: Read answered %d %q, reference %d %q",
				want, body, maxBytes, rec.Code, rec.Body.Bytes(), wantStatus, wantBody)
		}
		if rejected.Load() != 1 {
			t.Fatalf("a refused body counted %d rejections", rejected.Load())
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T body %q: Read decoded %#v, encoding/json %#v", want, body, got, want)
	}

	// The parser's own promise, stated without the fallback: whatever
	// it accepts is what encoding/json makes of the same bytes.
	var fast T
	if parsePlain(&fast, body) && !reflect.DeepEqual(fast, want) {
		t.Fatalf("%T body %q: parser decoded %#v, encoding/json %#v", want, body, fast, want)
	}
}

// checkEncode holds the append encoder to json.Encoder on one value:
// the same bytes, or both refuse.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, wantErr := refEncode(v)
	got, gotErr := appendJSON(nil, v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%#v: append encoder error %v, json.Encoder error %v", v, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("append encoder wrote\n%s\njson.Encoder wrote\n%s", got, want)
	}
}

// --- value generation ---------------------------------------------------

// edgeFloats are the values the two float notations switch at, and the
// ones JSON cannot say.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 28800, 1e-6, 9.99999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 1e21, 9.999999999999999e20, 1.2345e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-324, 123456789.125, 5e-324,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var edgeStrings = []string{
	"", "OD", "distribution", `a"b`, `back\slash`, "<script>&amp;</script>", "tab\there", "nl\nhere",
	"budget -1 must be ≥ 0 seconds", "  ", "bad\xffutf8", "\x00\x1f\x7f", "é", "日本語",
	`edge id 7 out of range [0, 3)`, `unknown method "XX" (want OD, RD, HP or LB)`,
}

// source deals values out of a byte string, so a fuzzer's mutations
// reach every field.
type source struct{ b []byte }

func (s *source) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *source) float() float64 {
	if c := s.byte(); int(c) < len(edgeFloats) {
		return edgeFloats[c]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (s *source) str() string {
	c := s.byte()
	if int(c) < len(edgeStrings) {
		return edgeStrings[c]
	}
	n := int(c) % 12
	out := make([]byte, n)
	for i := range out {
		out[i] = s.byte()
	}
	return string(out)
}

func (s *source) distribution() *DistributionResponse {
	kind := s.byte()
	if kind%16 == 15 {
		return nil
	}
	r := &DistributionResponse{
		Method: s.str(), Interval: int(int8(s.byte())),
		MeanS: s.float(), P10S: s.float(), P50S: s.float(), P90S: s.float(),
		DecompPaths: int(s.byte()), MaxRank: int(s.byte()), EvalUS: int64(int8(s.byte())) << (s.byte() % 56),
	}
	if kind&1 != 0 {
		pw := s.float()
		r.ProbWithin = &pw
	}
	switch n := int(s.byte()) % 8; n {
	case 0: // nil buckets
	case 1:
		r.Buckets = []Bucket{}
	default:
		for i := 0; i < n; i++ {
			b := Bucket{Lo: s.float(), Hi: s.float(), Pr: s.float()}
			if i > 0 && kind&2 != 0 { // adjacent, as a histogram's are
				b.Lo = r.Buckets[i-1].Hi
			}
			r.Buckets = append(r.Buckets, b)
		}
	}
	return r
}

func (s *source) batch() BatchResponse {
	n := int(s.byte()) % 6
	if n == 0 {
		return BatchResponse{}
	}
	out := BatchResponse{Results: make([]BatchResult, n-1)}
	for i := range out.Results {
		r := &out.Results[i]
		r.Kind, r.Status = s.str(), int(int8(s.byte()))*7
		switch s.byte() % 6 {
		case 0:
			r.Distribution = s.distribution()
		case 1:
			r.Error = s.str()
		case 2:
			r.Route = &RouteResponse{Path: []int64{int64(s.byte())}, Prob: s.float(), MeanS: s.float()}
		case 3:
			r.TopK = &TopKResponse{Routes: []TopKEntry{{Prob: s.float()}}}
		case 4:
			r.State = &StateResult{State: []byte(s.str()), UILo: s.float(), UIHi: s.float()}
		case 5:
			r.Distribution, r.Error = s.distribution(), s.str()
		}
	}
	return out
}

// --- tests ---------------------------------------------------------------

func TestEncoderMatchesJSONOnEdgeValues(t *testing.T) {
	for _, f := range edgeFloats {
		for _, g := range []float64{f, -f, f * (1 + 1e-15), f / 3} {
			checkEncode(t, &DistributionResponse{MeanS: g, Buckets: []Bucket{{Lo: g, Hi: g, Pr: g}, {Lo: g, Hi: 1, Pr: 0}}})
		}
	}
	for _, s := range edgeStrings {
		checkEncode(t, &DistributionResponse{Method: s})
		checkEncode(t, BatchResponse{Results: []BatchResult{{Kind: s, Status: 400, Error: s}}})
	}
	pw := 0.25
	checkEncode(t, &DistributionResponse{ProbWithin: &pw})
	checkEncode(t, (*DistributionResponse)(nil))
	checkEncode(t, BatchResponse{})
	checkEncode(t, BatchResponse{Results: []BatchResult{}})
	checkEncode(t, BatchResponse{Results: []BatchResult{{}, {Kind: "route", Status: 200, Route: &RouteResponse{}}}})
	// Everything that is neither hot shape goes through encoding/json.
	checkEncode(t, Error{Error: "<&>"})
	checkEncode(t, map[string]string{"status": "ok"})
	checkEncode(t, math.NaN())
}

// fill sets every field under v to a non-zero value, through pointers
// and one-element slices, so that omitempty hides nothing.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint8:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestEncoderCoversEveryField fails when a field is added to a shape
// the append encoder writes by hand and not to the encoder: with every
// field set, encoding/json emits it and the encoder does not.
func TestEncoderCoversEveryField(t *testing.T) {
	var d DistributionResponse
	fill(reflect.ValueOf(&d).Elem())
	checkEncode(t, &d)
	var r BatchResult // every member set: json.Marshal's entry
	fill(reflect.ValueOf(&r).Elem())
	checkEncode(t, BatchResponse{Results: []BatchResult{r}})
	r.Route, r.TopK, r.State = nil, nil, nil // a distribution entry: the inline one
	checkEncode(t, BatchResponse{Results: []BatchResult{r}})
}

func TestEncoderMatchesJSONOnRandomValues(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	raw := make([]byte, 400)
	for i := 0; i < 3000; i++ {
		rnd.Read(raw)
		checkEncode(t, (&source{b: raw}).distribution())
		checkEncode(t, (&source{b: raw}).batch())
	}
	// Magnitudes around both notation switches, where random bits
	// almost never land.
	for i := 0; i < 3000; i++ {
		f := (rnd.Float64() + 0.5) * math.Pow(10, float64(rnd.Intn(60)-30))
		checkEncode(t, &DistributionResponse{MeanS: f, P10S: -f})
	}
}

// requestSeeds are bodies on both sides of the plain form's edge.
var requestSeeds = []string{
	`{"path":[0,1],"depart":28800}`,
	`{"path":[0],"depart":0,"method":"LB","budget":600}`,
	` { "path" : [ 1 , 2 ] , "depart" : 1.5e3 , "method" : "hp" , "budget" : 0.25 } `,
	`{"queries":[{"path":[0,1],"depart":28800},{"kind":"distribution","path":[2],"depart":61200,"method":"HP","budget":9}]}`,
	`{"queries":[]}`, `{"queries":[{}]}`, `{}`, `{"path":[]}`, `{"path":[-0,-12]}`,
	// declined: duplicates, other capitalisation, null members
	`{"path":[1],"path":[2],"depart":1}`, `{"depart":1,"depart":2}`,
	`{"Path":[1],"depart":1}`, `{"PATH":[1],"DEPART":2}`, `{"queries":[{"Kind":"route"}]}`,
	`{"path":null,"depart":1}`, `{"path":[1],"depart":null}`, `{"method":null}`, `null`, `{"queries":null}`, `{"queries":[null]}`,
	// declined: numbers that are not plain
	`{"path":[1e3],"depart":1}`, `{"path":[1.0]}`, `{"path":[01]}`, `{"path":[1],"depart":01}`, `{"depart":-}`, `{"depart":1.}`, `{"depart":.5}`, `{"depart":1e}`, `{"depart":1e999}`, `{"depart":-1e-999}`,
	`{"path":[999999999999999999]}`, `{"path":[-999999999999999999]}`, `{"path":[1000000000000000000]}`, `{"path":[9223372036854775807]}`, `{"path":[9223372036854775808]}`,
	// declined: strings that are not plain
	`{"method":"OD"}`, `{"method":"a\"b"}`, `{"method":"é"}`, "{\"method\":\"a\tb\"}", "{\"method\":\"\xff\"}", `{"method":"OD"}`,
	// the first value ends the body, as for json.Decoder
	`{"path":[1],"depart":2}trailing garbage`, `{"path":[1],"depart":2}{"path":[3]}`, `{"queries":[]} x`, `{"path":[1]}}`,
	// richer shapes: encoding/json's to decode
	`{"kind":"distribution","path":[1]}`, `{"queries":[{"kind":"route","source":1,"dest":2,"depart":3,"budget":4}]}`,
	`{"queries":[{"kind":"state","path":[1],"depart":0,"ui_lo":0,"ui_hi":0,"state":"UFNU"}]}`,
	`{"queries":[{"path":[1],"k":2}]}`, `{"queries":[{"path":[1]}],"extra":1}`, `{"path":[1],"unknown":1}`,
	// malformed
	``, ` `, `{`, `{"path":[1,]}`, `{"path":[1 2]}`, `{"path":[1],}`, `{"path" [1]}`, `[1,2]`, `"str"`, `{"queries":[{"path":[1]},]}`, `{"queries":[{"path":[1]}`, "\xef\xbb\xbf{}",
	`{"path":[1],"depart":2,"method":"OD","budget":3,"path":[4]}`,
}

// smallCap is a body cap small enough for seeds to cross: refRead and
// Wire.Read must agree one byte either side of it.
const smallCap = 64

func TestReadMatchesJSONDecoder(t *testing.T) {
	for _, body := range requestSeeds {
		for _, limit := range []int64{MaxQueryBody, smallCap, int64(len(body)), int64(len(body)) - 1, 1} {
			if limit < 1 {
				continue
			}
			checkRead[DistributionRequest](t, []byte(body), limit)
			checkRead[BatchRequest](t, []byte(body), limit)
			checkRead[RouteRequest](t, []byte(body), limit) // no plain form: always encoding/json
		}
	}
	// One byte over the real cap, in a body that is valid up to it.
	big := []byte(`{"path":[` + strings.Repeat("1,", MaxQueryBody/2) + `1],"depart":0}`)
	checkRead[DistributionRequest](t, big[:MaxQueryBody+1], MaxQueryBody)
	checkRead[DistributionRequest](t, append([]byte(`{"path":[1],"depart":2}`), make([]byte, MaxQueryBody)...), MaxQueryBody)
}

// TestPlainFormIsTaken pins that the bodies clients actually send are
// decoded by the parser, not merely decoded correctly by the fallback.
func TestPlainFormIsTaken(t *testing.T) {
	dist, _ := json.Marshal(DistributionRequest{Path: []int64{3, 1, 4}, Depart: 28800, Method: "HP", Budget: 12.5})
	batch, _ := json.Marshal(BatchRequest{Queries: []BatchQuery{{Path: []int64{1}, Depart: 61200}, {Kind: "distribution", Path: []int64{2, 3}, Method: "LB", Budget: 1}}})
	var d DistributionRequest
	if !parsePlain(&d, dist) {
		t.Errorf("marshalled DistributionRequest %s is not plain", dist)
	}
	var b BatchRequest
	if !parsePlain(&b, batch) {
		t.Errorf("marshalled BatchRequest %s is not plain", batch)
	}
	if n := testing.AllocsPerRun(100, func() { parsePlain(&d, dist) }); n > 2 {
		t.Errorf("plain distribution parse allocates %v times, want 2 (the path and the method)", n)
	}
}

// TestPlainFormDeclines pins the other side of the edge: bodies the
// parser must leave to encoding/json even where it could guess the
// outcome, so that the plain form stays as narrow as documented.
func TestPlainFormDeclines(t *testing.T) {
	for _, body := range []string{
		`{"path":[1],"path":[2]}`, `{"depart":1,"depart":1}`, `{"queries":[],"queries":[]}`,
		`{"Path":[1]}`, `{"path":null}`, `{"method":null}`, `{"path":[1e3]}`, `{"path":[01]}`, `{"depart":01}`,
		`{"path":[1000000000000000000]}`, `{"path":[-1000000000000000000]}`, `{"method":"O\u0044"}`, `{"method":"é"}`,
		`{"kind":"distribution"}`, `{"queries":[{"source":1}]}`, `{"queries":[{"state":""}]}`, `{"unknown":1}`, `{"path":[1],}`, ``,
	} {
		var d DistributionRequest
		var b BatchRequest
		if parsePlain(&d, []byte(body)) || parsePlain(&b, []byte(body)) {
			t.Errorf("body %s was taken by the parser; it is not in the plain form", body)
		}
		if !reflect.DeepEqual(d, DistributionRequest{}) || b.Queries != nil {
			t.Errorf("body %s: a declined parse wrote to its destination", body)
		}
	}
}

func TestWriteRefusesUnencodablePayload(t *testing.T) {
	for _, v := range []any{
		&DistributionResponse{MeanS: math.NaN()},
		BatchResponse{Results: []BatchResult{{Distribution: &DistributionResponse{Buckets: []Bucket{{Hi: math.Inf(1)}}}}}},
		map[string]float64{"x": math.Inf(-1)},
	} {
		wr, served, rejected := testWire()
		rec := httptest.NewRecorder()
		wr.Write(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != "{\"error\":\"internal error during computation\"}\n" {
			t.Errorf("%#v: answered %d %q, want the 500 envelope", v, rec.Code, rec.Body.String())
		}
		if served.Load() != 0 || rejected.Load() != 1 {
			t.Errorf("%#v: counted served %d rejected %d, want 0 and 1", v, served.Load(), rejected.Load())
		}
	}
}

func TestBufferPoolRetentionCap(t *testing.T) {
	big := GetBuffer()
	big.Grow(maxPooledBuffer + 1)
	PutBuffer(big)
	for i := 0; i < 8; i++ {
		if b := GetBuffer(); b.Cap() > maxPooledBuffer {
			t.Fatalf("pool handed back a %d-byte buffer, cap on retention is %d", b.Cap(), maxPooledBuffer)
		}
	}
}

// FuzzWireCodec feeds the same bytes to both halves of the codec. As a
// request body: Wire.Read must agree with the json.Decoder both tiers
// used before it — verdict, error bytes, decoded struct — at the real
// cap and at one the body may cross. As a source of response values:
// the append encoder must write json.Encoder's bytes or refuse with it.
func FuzzWireCodec(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Add(append([]byte(`{"path":[1],"depart":2}`), make([]byte, smallCap)...)) // over the cap after a whole value
	f.Add(bytes.Repeat([]byte{0x20, 0x07, 0x15, 0x03}, 40))                     // response seeds: table indices and raw bits
	f.Add(bytes.Repeat([]byte{0xfe, 0x1b, 0x02, 0x0a, 0x19}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int64{MaxQueryBody, smallCap} {
			checkRead[DistributionRequest](t, data, limit)
			checkRead[BatchRequest](t, data, limit)
		}
		checkEncode(t, (&source{b: data}).distribution())
		checkEncode(t, (&source{b: data}).batch())
	})
}
