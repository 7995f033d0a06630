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

// checkMarshalRequest holds the relay-leg request encoder to
// json.Marshal on one value: the same bytes, or the same refusal.
func checkMarshalRequest(t *testing.T, r *BatchRequest) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, gotErr := MarshalBatchRequest(r)
	if (gotErr != nil) != (wantErr != nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%#v: request encoder error %v, json.Marshal error %v", r, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request encoder wrote\n%s\njson.Marshal wrote\n%s", got, want)
	}
}

// checkUnmarshalResponse holds the relay-leg answer decoder to
// json.Unmarshal on one body: same verdict, same error text, same
// struct; and whatever the plain parser accepts on its own is
// json.Unmarshal's struct too, holding no byte of the body.
func checkUnmarshalResponse(t *testing.T, data []byte) {
	t.Helper()
	var want BatchResponse
	wantErr := json.Unmarshal(data, &want)
	var got BatchResponse
	gotErr := UnmarshalBatchResponse(data, &got)
	if (gotErr != nil) != (wantErr != nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q: decoder error %v, json.Unmarshal error %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoder gave %#v, json.Unmarshal %#v", data, got, want)
	}
	var fast BatchResponse
	if !ParseBatchResponse(data, &fast) {
		if fast.Results != nil {
			t.Fatalf("body %q: a declined parse wrote to its destination", data)
		}
		return
	}
	if wantErr != nil || !reflect.DeepEqual(fast, want) {
		t.Fatalf("body %q: parser decoded %#v, json.Unmarshal %#v (%v)", data, fast, want, wantErr)
	}
	scribble := bytes.Clone(data)
	ParseBatchResponse(scribble, &fast)
	for i := range scribble {
		scribble[i] = 'x'
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("body %q: the decoded answer aliases the body it was read from", data)
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

func (s *source) bytes() []byte {
	switch c := s.byte(); c % 4 {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		out := make([]byte, int(c)%9)
		for i := range out {
			out[i] = s.byte()
		}
		return out
	}
}

// batchRequest deals a relay-leg request: every BatchQuery field,
// each zero (and so left out) often enough to matter.
func (s *source) batchRequest() *BatchRequest {
	n := int(s.byte()) % 5
	if n == 0 {
		return &BatchRequest{}
	}
	out := &BatchRequest{Queries: make([]BatchQuery, n-1)}
	for i := range out.Queries {
		q := &out.Queries[i]
		mask := s.byte()
		pick := func(bit int, v float64) float64 {
			if mask&(1<<bit) != 0 {
				return v
			}
			return 0
		}
		q.Kind, q.Method = s.str(), s.str()
		if mask&1 != 0 {
			for j := int(s.byte()) % 4; j >= 0; j-- {
				q.Path = append(q.Path, int64(int8(s.byte()))<<(s.byte()%56))
			}
		}
		q.Source, q.Dest = int64(int8(s.byte())), int64(int8(s.byte()))
		q.Depart = s.float()
		q.Budget, q.UILo, q.UIHi = pick(1, s.float()), pick(2, s.float()), pick(3, s.float())
		q.K = int(int8(s.byte()))
		q.State = s.bytes()
	}
	return out
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
			r.State = &StateResult{State: s.bytes(), UILo: s.float(), UIHi: s.float(),
				Factors: int(int8(s.byte())), MaxRank: int(s.byte())}
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
	state := []byte("PST\x02\x00\xff<>&")
	for _, f := range edgeFloats {
		q := BatchQuery{Kind: "state", Path: []int64{1, -2}, Depart: f, Budget: f, UILo: f, UIHi: -f, State: state}
		checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{q, {Depart: f}}})
		checkEncode(t, BatchResponse{Results: []BatchResult{{Kind: "state", Status: 200, State: &StateResult{State: state, UILo: f, UIHi: f}}}})
	}
	for _, s := range edgeStrings {
		checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{{Kind: s, Method: s}}})
	}
	for _, st := range [][]byte{nil, {}, {0}, {0, 1}, {0, 1, 2}, state} {
		checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{{State: st}}})
		checkEncode(t, BatchResponse{Results: []BatchResult{{State: &StateResult{State: st}}}})
	}
	checkMarshalRequest(t, &BatchRequest{})
	checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{}})
	checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{{Path: []int64{}, Source: 1, Dest: -1, K: -3}}})
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
	r.Route, r.TopK = nil, nil // the inline entry: distribution and state
	checkEncode(t, BatchResponse{Results: []BatchResult{r}})
	r.Distribution = nil // a relay leg's answer
	checkEncode(t, BatchResponse{Results: []BatchResult{r}})
	var q BatchQuery
	fill(reflect.ValueOf(&q).Elem())
	checkMarshalRequest(t, &BatchRequest{Queries: []BatchQuery{q}})
}

func TestEncoderMatchesJSONOnRandomValues(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	raw := make([]byte, 400)
	for i := 0; i < 3000; i++ {
		rnd.Read(raw)
		checkEncode(t, (&source{b: raw}).distribution())
		checkBatchRoundTrip(t, (&source{b: raw}).batch())
		checkMarshalRequest(t, (&source{b: raw}).batchRequest())
	}
	// Magnitudes around both notation switches, where random bits
	// almost never land.
	for i := 0; i < 3000; i++ {
		f := (rnd.Float64() + 0.5) * math.Pow(10, float64(rnd.Intn(60)-30))
		checkEncode(t, &DistributionResponse{MeanS: f, P10S: -f})
	}
}

// checkBatchRoundTrip encodes a batch answer as a shard does and then
// decodes those bytes as the coordinator does, each half held to
// encoding/json.
func checkBatchRoundTrip(t *testing.T, r BatchResponse) {
	t.Helper()
	checkEncode(t, r)
	if body, err := appendJSON(nil, r); err == nil {
		checkUnmarshalResponse(t, body)
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
	// relay legs: state entries, and the edges of a base64 state
	`{"queries":[{"kind":"state","path":[1],"depart":0,"ui_lo":0,"ui_hi":0,"state":"UFNU"}]}`,
	`{"queries":[{"kind":"state","path":[3,4],"depart":28800,"method":"OD","ui_lo":28800,"ui_hi":28800}]}`,
	`{"queries":[{"state":""}]}`, `{"queries":[{"state":null}]}`, `{"queries":[{"state":"UFN"}]}`, `{"queries":[{"state":"UFM="}]}`,
	`{"queries":[{"state":"UF=="}]}`, `{"queries":[{"state":"UF="}]}`, `{"queries":[{"state":"U==="}]}`, `{"queries":[{"state":"UFNU===="}]}`,
	`{"queries":[{"state":"\/"}]}`, `{"queries":[{"state":"+/+/"}]}`, `{"queries":[{"state":"UF NU"}]}`, `{"queries":[{"state":"UFNU","state":"UFNU"}]}`,
	`{"queries":[{"kind":"state","ui_lo":1e3,"ui_hi":2.5E-3}]}`, `{"queries":[{"ui_lo":-0,"ui_hi":1e999}]}`, `{"queries":[{"ui_lo":null}]}`,
	`{"state":"UFNU"}`, `{"path":[1],"ui_lo":1}`,
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
	for _, body := range [][]byte{relayRequest(t), []byte(`{"queries":[{"state":""}]}`)} {
		if !parsePlain(&b, body) {
			t.Errorf("relay body %s is not plain", body)
		}
	}
	var r BatchResponse
	if answer := relayAnswer(t); !ParseBatchResponse(answer, &r) {
		t.Errorf("relay answer %s is not plain", answer)
	}
}

// relayRequest is one relay leg's body as the coordinator marshals it:
// a continued segment, with a state to carry.
func relayRequest(t *testing.T) []byte {
	t.Helper()
	body, err := MarshalBatchRequest(&BatchRequest{Queries: []BatchQuery{{
		Kind: "state", Path: []int64{812, 813, 1044}, Depart: 28800, Method: "OD",
		UILo: 28912.5, UIHi: 29160.25, State: bytes.Repeat([]byte{0x50, 0x53, 0x02, 0xfe}, 32),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// relayAnswer is a shard's one-entry answer to a relay leg.
func relayAnswer(t *testing.T) []byte {
	t.Helper()
	body, err := appendJSON(nil, BatchResponse{Results: []BatchResult{{Kind: "state", Status: 200, State: &StateResult{
		State: bytes.Repeat([]byte{0x50, 0x53, 0x02, 0xfe}, 32), UILo: 28912.5, UIHi: 29160.25, Factors: 3, MaxRank: 2,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRelayCodecAllocs pins the allocations of a relay leg's codec
// steps: the shard's parse of the request, the coordinator's encode of
// it and its decode of the answer.
func TestRelayCodecAllocs(t *testing.T) {
	req, answer := relayRequest(t), relayAnswer(t)
	breq, bresp := new(BatchRequest), new(BatchResponse)
	if !parsePlain(breq, req) {
		t.Fatal("relay request is not plain")
	}
	for _, c := range []struct {
		name   string
		budget float64
		f      func()
	}{
		// queries, path, kind, method, state
		{"parse a relay request", 5, func() { *breq = BatchRequest{}; parsePlain(breq, req) }},
		// the body, sized once
		{"encode a relay request", 1, func() { _, _ = MarshalBatchRequest(breq) }},
		// results, the StateResult, its state; the kind is shared
		{"decode a one-entry state answer", 3, func() { *bresp = BatchResponse{}; _ = UnmarshalBatchResponse(answer, bresp) }},
	} {
		n := testing.AllocsPerRun(200, c.f)
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.name, n, c.budget)
		}
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
		`{"kind":"distribution"}`, `{"queries":[{"source":1}]}`, `{"unknown":1}`, `{"path":[1],}`, ``,
		`{"state":""}`, `{"ui_lo":1}`, `{"queries":[{"state":null}]}`, `{"queries":[{"state":"UFN"}]}`, `{"queries":[{"state":"\/"}]}`,
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

// responseSeeds are relay-leg answers on both sides of the plain
// form's edge.
var responseSeeds = []string{
	`{"results":[{"kind":"state","status":200,"state":{"state":"UFNU","ui_lo":28800,"ui_hi":28950.5,"factors":3,"max_rank":2}}]}` + "\n",
	` { "results" : [ { "kind" : "state" , "status" : 400 , "error" : "core: bad state" } ] } `,
	`{"results":[]}`, `{"results":[{}]}`, `{"results":[{"state":{}}]}`, `{"results":[{"kind":"distribution","status":200,"distribution":{"method":"OD"}}]}`,
	`{"results":null}`, `{"results":[null]}`, `{"results":[{"state":null}]}`, `{"results":[{"state":{"state":null}}]}`, `null`,
	`{"results":[{"state":{"state":"UFN"}}]}`, `{"results":[{"state":{"state":"\/"}}]}`, `{"results":[{"status":1.5}]}`, `{"results":[{"status":1e2}]}`,
	`{"results":[{"status":99999999999999999999}]}`, `{"results":[{"state":{"factors":-0,"ui_lo":1e999}}]}`,
	`{"results":[{"kind":"state","kind":"state"}]}`, `{"results":[{"Kind":"state"}]}`, `{"results":[{"kind":"state","extra":1}]}`, `{"results":[],"extra":1}`,
	`{"results":[]} `, `{"results":[]} x`, `{"results":[]}{}`, `{"results":[{"error":"a\u003cb"}]}`, `{"results":[{"error":"é"}]}`, `{"results":[{"kind":"state"},]}`,
}

// FuzzWireCodec feeds the same bytes to both halves of the codec. As a
// request body: Wire.Read must agree with the json.Decoder both tiers
// used before it — verdict, error bytes, decoded struct — at the real
// cap and at one the body may cross. As a relay leg's answer:
// UnmarshalBatchResponse must agree with json.Unmarshal. As a source of
// values: the append encoder must write json.Encoder's bytes, and the
// relay request encoder json.Marshal's, or refuse with them; every
// batch answer encoded is decoded back against json.Unmarshal too.
func FuzzWireCodec(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Add(append([]byte(`{"path":[1],"depart":2}`), make([]byte, smallCap)...)) // over the cap after a whole value
	f.Add(bytes.Repeat([]byte{0x20, 0x07, 0x15, 0x03}, 40))                     // response seeds: table indices and raw bits
	f.Add(bytes.Repeat([]byte{0xfe, 0x1b, 0x02, 0x0a, 0x19}, 40))
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int64{MaxQueryBody, smallCap} {
			checkRead[DistributionRequest](t, data, limit)
			checkRead[BatchRequest](t, data, limit)
		}
		checkUnmarshalResponse(t, data)
		checkEncode(t, (&source{b: data}).distribution())
		checkBatchRoundTrip(t, (&source{b: data}).batch())
		checkMarshalRequest(t, (&source{b: data}).batchRequest())
	})
}
