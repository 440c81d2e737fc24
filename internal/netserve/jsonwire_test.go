package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The loop codec (jsonwire.go) against its oracle, encoding/json: the
// encoder's bytes and errors equal json.Marshal's, and every body the
// decoder accepts decodes to the value json.Decoder yields, bit for bit —
// with DisallowUnknownFields for the server's request bodies, without it
// for the client's replies.

// loopCodec is one loop body type's codec pair and its oracle.
type loopCodec struct {
	name   string
	encode func(v any) ([]byte, error) // the hand-written encoder
	decode func(body []byte) (any, error)
	oracle func(body []byte) (any, error)
}

func codecFor[T any](name string, strict bool, enc func([]byte, *T) ([]byte, error), dec func([]byte, *T) error) loopCodec {
	return loopCodec{
		name:   name,
		encode: func(v any) ([]byte, error) { return enc(nil, v.(*T)) },
		decode: func(body []byte) (any, error) {
			var v T
			err := dec(body, &v)
			return &v, err
		},
		oracle: func(body []byte) (any, error) {
			var v T
			d := json.NewDecoder(bytes.NewReader(body))
			if strict {
				d.DisallowUnknownFields()
			}
			err := d.Decode(&v)
			return &v, err
		},
	}
}

var loopCodecs = []loopCodec{
	codecFor("DecideRequest", true, AppendDecideRequest, DecodeDecideRequest),
	codecFor("DecideResponse", false, AppendDecideResponse, DecodeDecideResponse),
	codecFor("ObserveRequest", true, AppendObserveRequest, DecodeObserveRequest),
	codecFor("BatchRequest", true, AppendBatchRequest, DecodeBatchRequest),
	codecFor("BatchResponse", false, AppendBatchResponse, DecodeBatchResponse),
}

// sameBits reports whether a and b hold the same values, floats compared
// by their shortest round-trip form, which tells -0 from 0.
func sameBits(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// loopValues builds one value of each loop body type (in loopCodecs'
// order) whose every float is x, every string s, every bool x > 0 and
// every list n long (nil for n < 0). It sets fields by reflection, so a
// field added to a wire struct is set too and fails the encoder and
// decoder tests until the codec writes and reads it.
func loopValues(x float64, s string, n int) []any {
	vs := []any{&DecideRequest{}, &DecideResponse{}, &ObserveRequest{}, &BatchRequest{}, &BatchResponse{}}
	k := 0
	for _, v := range vs {
		fill(reflect.ValueOf(v).Elem(), x, s, n, &k)
	}
	return vs
}

// fillInts are the ints fill hands out in turn.
var fillInts = []int{math.MaxInt, -2, 3, math.MinInt, 0, -1, 1 << 40}

func fill(v reflect.Value, x float64, s string, n int, k *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), x, s, n, k)
		}
	case reflect.Slice:
		if n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), x, s, n, k)
		}
	case reflect.Int:
		v.SetInt(int64(fillInts[*k%len(fillInts)]))
		*k++
	case reflect.Float64:
		v.SetFloat(x)
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		v.SetBool(x > 0)
	default:
		panic("loopValues: no filler for a " + v.Kind().String() + " field")
	}
}

// checkEncode requires the codec's bytes and error to equal json.Marshal's.
func checkEncode(t *testing.T, c loopCodec, v any) {
	t.Helper()
	got, gotErr := c.encode(v)
	want, wantErr := json.Marshal(v)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s %#v: error %v, encoding/json's %v", c.name, v, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded\n%s\nencoding/json\n%s", c.name, got, want)
	}
}

// checkDecode requires that a body the codec accepts is one encoding/json
// accepts, with the same value, and that its value re-encodes like
// encoding/json's.
func checkDecode(t *testing.T, c loopCodec, body []byte) {
	t.Helper()
	got, err := c.decode(body)
	if err != nil {
		return
	}
	want, wantErr := c.oracle(body)
	if wantErr != nil {
		t.Fatalf("%s accepted %q, which encoding/json rejects: %v", c.name, body, wantErr)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s %q: decoded %#v, encoding/json %#v", c.name, body, got, want)
	}
	checkEncode(t, c, got)
}

func TestJSONWireEncodeMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.2, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21,
		-1e21, 123456789012345680000, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e-9, 1.5e-10,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", ObjectiveMinEnergy, "node-7", `a"b\c`, "<&>", "tab\there", "\x00\x1f\x7f",
		"café", "  ", "bad\xffutf8", "\b\f"}
	for _, x := range floats {
		for _, s := range strs {
			for _, n := range []int{-1, 0, 1, 3} {
				for i, v := range loopValues(x, s, n) {
					checkEncode(t, loopCodecs[i], v)
				}
			}
		}
	}
}

// TestJSONWireDecodeMatchesEncodingJSON: bodies the decoder must accept
// with encoding/json's value, and the bodies where it departs from
// encoding/json by rejecting what that accepts.
func TestJSONWireDecodeMatchesEncodingJSON(t *testing.T) {
	for i, v := range loopValues(0.25, "node-é\n", 2) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loopCodecs[i].decode(body); err != nil {
			t.Errorf("%s rejected %s: %v", loopCodecs[i].name, body, err)
		}
		for _, c := range loopCodecs {
			checkDecode(t, c, body)
		}
	}
	accepted := []struct {
		codec int
		body  string
	}{
		{0, " \t\r\n{ \"stream\" : -0 , \"spec\" : { \"objective\" : \"x\\u00e9\\n\" , \"deadline_s\" : -0.0E+1 } }\n "},
		{0, `{"spec":{"prth":1e-400,"deadline_s":0.1000000000000000055511151231257827}}`},
		{0, `{}`},
		{1, `{"estimate":{"run_to_deadline":false,"quality":1E2},"node_id":"😀 "}`},
		{3, `{"requests":[]}`},
		{3, `{"requests":[{},{"stream":2}]}`},
		{4, `{"results":[{"decision":{"cap_w":12.5}}]}`},
		// A reply skips a member it does not know, whatever its value.
		{1, `{"decision":{"model":1,"later":[1,{"a":null,"b":"\u00e9\"x"}],"cap":2},"node_id":"n","added":{"x":-1.5e400}}`},
		{4, `{"results":[{"stream":1,"extra":true,"estimate":{"new":[[],{}]}}],"next":null}`},
	}
	for _, tc := range accepted {
		c := loopCodecs[tc.codec]
		if _, err := c.decode([]byte(tc.body)); err != nil {
			t.Errorf("%s rejected %s: %v", c.name, tc.body, err)
		}
		checkDecode(t, c, []byte(tc.body))
	}
	// The departures: encoding/json takes each of these bodies.
	departures := []struct {
		why   string
		codec int
		body  string
	}{
		{"case-folded key", 0, `{"Stream":1}`},
		{"case-folded nested key", 2, `{"feedback":{"Latency_S":1}}`},
		{"escaped key", 0, `{"str\u0065am":1}`},
		{"repeated key", 0, `{"stream":1,"stream":2}`},
		{"repeated nested key", 1, `{"decision":{"cap":1,"cap":1}}`},
		{"null field", 0, `{"stream":null}`},
		{"null object", 2, `{"feedback":null}`},
		{"null array", 3, `{"requests":null}`},
		{"null body", 4, `null`},
		{"trailing bytes", 0, `{"stream":1}x`},
		{"a second value", 3, `{"requests":[]} {}`},
		{"case-folded reply key", 1, `{"Node_ID":"x"}`},
		{"deep unknown reply member", 4, `{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}`},
	}
	for _, tc := range departures {
		c := loopCodecs[tc.codec]
		if _, err := c.oracle([]byte(tc.body)); err != nil {
			t.Errorf("%s: encoding/json rejects %s (%v); not a departure", tc.why, tc.body, err)
		}
		if _, err := c.decode([]byte(tc.body)); err == nil {
			t.Errorf("%s: %s accepted %s", tc.why, c.name, tc.body)
		}
	}
	// Both reject these.
	rejected := []struct {
		codec int
		body  string
	}{
		{0, ``}, {0, `{`}, {0, `{"stream":1,}`}, {0, `{,"stream":1}`}, {0, `{"stream" 1}`},
		{0, `{"stream":1.5}`}, {0, `{"stream":1e2}`}, {0, `{"stream":9223372036854775808}`},
		{0, `{"stream":01}`}, {0, `{"stream":+1}`}, {0, `{"stream":-}`}, {0, `{"stream":"1"}`},
		{0, `{"spec":{"deadline_s":1e400}}`}, {0, `{"spec":{"deadline_s":.5}}`}, {0, `{"spec":{"deadline_s":1.}}`},
		{0, `{"spec":{"bogus":1}}`}, {0, `{"spec":{"objective":"a` + "\x01" + `"}}`}, {0, `{"spec":{"objective":"\q"}}`},
		{0, `{"spec":{"objective":1}}`}, {0, `{"stream` + "\n" + `":1}`}, {1, `{"estimate":{"run_to_deadline":tru}}`},
		{1, `{"estimate":{"run_to_deadline":1}}`}, {3, `{"requests":[{}{}]}`}, {3, `{"requests":[,]}`},
		{3, `{"requests":[{},]}`}, {3, `{"requests":{}}`}, {4, `{"results":[1]}`}, {4, `[]`},
		// An unknown reply member is skipped only if it is valid JSON.
		{1, `{"x":tru}`}, {1, `{"x":nul}`}, {1, `{"x":-}`}, {1, `{"x":"\q"}`}, {1, `{"x":"\u12"}`},
		{1, `{"x":"a` + "\x01" + `"}`}, {1, `{"x":[1,]}`}, {1, `{"x":[}`}, {1, `{"x":{"a":1,}}`},
		{1, `{"x":{1:2}}`}, {1, `{"x" 1}`}, {4, `{"x":}`}, {4, `{"x":"unterminated}`},
	}
	for _, tc := range rejected {
		c := loopCodecs[tc.codec]
		if _, err := c.decode([]byte(tc.body)); err == nil {
			t.Errorf("%s accepted %q", c.name, tc.body)
		}
		if _, err := c.oracle([]byte(tc.body)); err == nil {
			t.Errorf("encoding/json accepts %q; list it as a departure", tc.body)
		}
	}
}

// FuzzJSONWireMatchesEncodingJSON is the differential target: the fuzzed
// body through every decoder, and values built from the fuzzed float bits
// and string through every encoder.
func FuzzJSONWireMatchesEncodingJSON(f *testing.F) {
	for _, v := range loopValues(0.2, ObjectiveMinEnergy, 2) {
		body, _ := json.Marshal(v)
		f.Add(body, math.Float64bits(1e21), "node-1")
	}
	f.Add([]byte(`{"stream":1,"stream":2}`), math.Float64bits(math.NaN()), "< >")
	f.Add([]byte(`{"Stream":-0,"spec":null} `), math.Float64bits(1e-7), "\xff")
	f.Add([]byte(`{"node_id":"a","x":[{"y":"\u00e9"},1e400,true,null]}`), math.Float64bits(-0.5), "")
	f.Fuzz(func(t *testing.T, body []byte, bits uint64, s string) {
		for _, c := range loopCodecs {
			checkDecode(t, c, body)
		}
		for _, x := range []float64{math.Float64frombits(bits), math.Float64frombits(bits >> 11)} {
			for i, v := range loopValues(x, s, int(bits%4)-1) {
				checkEncode(t, loopCodecs[i], v)
			}
		}
	})
}

// TestJSONLoopServerAllocs pins what the HTTP door allocates per loop
// request beyond the httptest harness's own request and recorder. Through
// encoding/json a decide cost 22, an observe 23 and a 64-decide batch 99;
// the codec must keep each at half that or less (all three measure 9 on
// Go 1.24, nearly all of it the recorder's header and body).
func TestJSONLoopServerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop recycled buffers")
	}
	s := New(testAlertServer(t, 1), Config{})
	decide, _ := json.Marshal(DecideRequest{Stream: 1, Spec: testSpec()})
	breq := BatchRequest{Requests: make([]DecideRequest, 64)}
	for i := range breq.Requests {
		breq.Requests[i] = DecideRequest{Stream: 100 + i, Spec: testSpec()}
	}
	batch, _ := json.Marshal(breq)
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	var dec DecideResponse
	if err := json.Unmarshal(serve("/v1/decide", decide).Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	observe, _ := json.Marshal(ObserveRequest{Stream: 1, Feedback: Feedback{Decision: dec.Decision, LatencyS: 0.1, CompletedStage: -1}})
	serve("/v1/decide-batch", batch)
	harness := testing.AllocsPerRun(50, func() {
		httptest.NewRecorder()
		httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(decide))
	})
	for _, tc := range []struct {
		path string
		body []byte
		max  float64
	}{
		{"/v1/decide", decide, 11},
		{"/v1/observe", observe, 11},
		{"/v1/decide-batch", batch, 49},
	} {
		got := testing.AllocsPerRun(50, func() { serve(tc.path, tc.body) }) - harness
		t.Logf("%s: %.0f allocs beyond the harness's %.0f", tc.path, got, harness)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs beyond the harness's %.0f, want at most %.0f", tc.path, got, harness, tc.max)
		}
	}
}
