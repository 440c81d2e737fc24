package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// This file is the JSON codec of the per-input loop's bodies — decide,
// observe and decide-batch — written out by hand so the loop pays no
// reflection: the Append functions encode into a caller's buffer, the
// Decode functions scan a whole body in place. The server's three loop
// handlers and the client's three loop ops use it; every other body
// stays on encoding/json, which remains the oracle this codec is tested
// against (FuzzJSONWireMatchesEncodingJSON).
//
// Encoding produces exactly json.Marshal's bytes and fails exactly where
// it fails (a NaN or infinite float). Decoding a request (the server's
// side) yields, for every body it accepts, the value json.Decoder with
// DisallowUnknownFields yields; decoding a reply (the client's side)
// skips an unknown member as json.Decoder does by default, so a server
// may add reply fields without breaking older clients. Both reject some
// bodies encoding/json takes:
//   - a key that matches a field only case-insensitively ("Stream");
//   - a key written with escapes ("str\u0065am");
//   - a repeated key;
//   - null for a known field or for the whole body;
//   - anything but whitespace after the body's value;
//   - an unknown reply member nested more than maxSkipDepth levels deep.

// AppendDecideRequest appends v's JSON encoding to b.
func AppendDecideRequest(b []byte, v *DecideRequest) ([]byte, error) {
	e := jsonEnc{b: b}
	e.decideRequest(v)
	return e.b, e.err
}

// AppendDecideResponse appends v's JSON encoding to b.
func AppendDecideResponse(b []byte, v *DecideResponse) ([]byte, error) {
	e := jsonEnc{b: b}
	e.decision(`{"decision":`, &v.Decision)
	e.estimate(`,"estimate":`, &v.Estimate)
	if v.NodeID != "" {
		e.str(`,"node_id":`, v.NodeID)
	}
	e.raw("}")
	return e.b, e.err
}

// AppendObserveRequest appends v's JSON encoding to b.
func AppendObserveRequest(b []byte, v *ObserveRequest) ([]byte, error) {
	e := jsonEnc{b: b}
	f := &v.Feedback
	e.int(`{"stream":`, v.Stream)
	e.decision(`,"feedback":{"decision":`, &f.Decision)
	e.float(`,"latency_s":`, f.LatencyS)
	e.int(`,"completed_stage":`, f.CompletedStage)
	e.floatOmitZero(`,"idle_power_w":`, f.IdlePowerW)
	e.raw("}}")
	return e.b, e.err
}

// AppendBatchRequest appends v's JSON encoding to b.
func AppendBatchRequest(b []byte, v *BatchRequest) ([]byte, error) {
	if v.Requests == nil {
		return append(b, `{"requests":null}`...), nil
	}
	e := jsonEnc{b: b}
	e.raw(`{"requests":[`)
	for i := range v.Requests {
		if i > 0 {
			e.raw(",")
		}
		e.decideRequest(&v.Requests[i])
	}
	e.raw("]}")
	return e.b, e.err
}

// AppendBatchResponse appends v's JSON encoding to b.
func AppendBatchResponse(b []byte, v *BatchResponse) ([]byte, error) {
	if v.Results == nil {
		return append(b, `{"results":null}`...), nil
	}
	e := jsonEnc{b: b}
	e.raw(`{"results":[`)
	for i := range v.Results {
		if i > 0 {
			e.raw(",")
		}
		r := &v.Results[i]
		e.int(`{"stream":`, r.Stream)
		e.decision(`,"decision":`, &r.Decision)
		e.estimate(`,"estimate":`, &r.Estimate)
		e.raw("}")
	}
	e.raw("]}")
	return e.b, e.err
}

// jsonEnc appends one body; err is the first value encoding/json refuses.
// Each method appends a field's key (with its leading comma or brace) and
// then its value.
type jsonEnc struct {
	b   []byte
	err error
}

func (e *jsonEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonEnc) int(key string, v int) {
	e.raw(key)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// float appends f as encoding/json does: the shortest form that parses
// back to f, in exponent form below 1e-6 and from 1e21 up, with the
// negative exponent's leading zero dropped.
func (e *jsonEnc) float(key string, f float64) {
	e.raw(key)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// floatOmitZero is float under omitempty, which omits 0 and -0.
func (e *jsonEnc) floatOmitZero(key string, f float64) {
	if f != 0 {
		e.float(key, f)
	}
}

// str appends s quoted. Printable ASCII that needs no escape is copied;
// anything else goes through encoding/json, whose escapes differ between
// Go releases (\b and \f since Go 1.22).
func (e *jsonEnc) str(key, s string) {
	e.raw(key)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *jsonEnc) decideRequest(v *DecideRequest) {
	s := &v.Spec
	e.int(`{"stream":`, v.Stream)
	e.str(`,"spec":{"objective":`, s.Objective)
	e.float(`,"deadline_s":`, s.DeadlineS)
	e.floatOmitZero(`,"energy_budget_j":`, s.EnergyBudgetJ)
	e.floatOmitZero(`,"accuracy_goal":`, s.AccuracyGoal)
	e.floatOmitZero(`,"prth":`, s.Prth)
	e.raw("}}")
}

func (e *jsonEnc) decision(key string, v *Decision) {
	e.raw(key)
	e.int(`{"model":`, v.Model)
	e.int(`,"cap":`, v.Cap)
	e.float(`,"cap_w":`, v.CapW)
	e.floatOmitZero(`,"planned_stop_s":`, v.PlannedStopS)
	e.floatOmitZero(`,"overhead_s":`, v.OverheadS)
	e.raw("}")
}

func (e *jsonEnc) estimate(key string, v *Estimate) {
	e.raw(key)
	e.int(`{"model":`, v.Model)
	e.int(`,"cap":`, v.Cap)
	e.int(`,"stop_stage":`, v.StopStage)
	if v.RunToDeadline {
		e.raw(`,"run_to_deadline":true`)
	}
	e.float(`,"lat_mean_s":`, v.LatMeanS)
	e.float(`,"pr_deadline":`, v.PrDeadline)
	e.float(`,"quality":`, v.Quality)
	e.float(`,"pr_quality":`, v.PrQuality)
	e.float(`,"energy_j":`, v.EnergyJ)
	e.floatOmitZero(`,"planned_stop_s":`, v.PlannedStopS)
	e.raw("}")
}

// DecodeDecideRequest parses a whole POST /v1/decide body into v.
func DecodeDecideRequest(body []byte, v *DecideRequest) error {
	d := jsonDec{b: body}
	*v = DecideRequest{}
	d.decideRequest(v)
	return d.end()
}

// DecodeDecideResponse parses a whole POST /v1/decide reply into v.
func DecodeDecideResponse(body []byte, v *DecideResponse) error {
	d := jsonDec{b: body, skipUnknown: true}
	*v = DecideResponse{}
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "decision", "estimate", "node_id") {
		case 0:
			d.decision(&v.Decision)
		case 1:
			d.estimate(&v.Estimate)
		case 2:
			v.NodeID = d.str()
		}
	}
	return d.end()
}

// DecodeObserveRequest parses a whole POST /v1/observe body into v.
func DecodeObserveRequest(body []byte, v *ObserveRequest) error {
	d := jsonDec{b: body}
	*v = ObserveRequest{}
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "stream", "feedback") {
		case 0:
			v.Stream = d.int()
		case 1:
			d.feedback(&v.Feedback)
		}
	}
	return d.end()
}

// DecodeBatchRequest parses a whole POST /v1/decide-batch body into v,
// reusing v.Requests' memory.
func DecodeBatchRequest(body []byte, v *BatchRequest) error {
	d := jsonDec{b: body}
	reqs := v.Requests[:0]
	*v = BatchRequest{}
	var seen uint32
	for n := 0; d.member(n); n++ {
		if d.key(&seen, "requests") == 0 && d.open('[') {
			if reqs == nil {
				reqs = []DecideRequest{}
			}
			for i := 0; d.element(i); i++ {
				reqs = append(reqs, DecideRequest{})
				d.decideRequest(&reqs[i])
			}
			v.Requests = reqs
		}
	}
	return d.end()
}

// DecodeBatchResponse parses a whole POST /v1/decide-batch reply into v.
func DecodeBatchResponse(body []byte, v *BatchResponse) error {
	d := jsonDec{b: body, skipUnknown: true}
	*v = BatchResponse{}
	var seen uint32
	for n := 0; d.member(n); n++ {
		if d.key(&seen, "results") == 0 && d.open('[') {
			v.Results = []BatchResult{}
			for i := 0; d.element(i); i++ {
				v.Results = append(v.Results, BatchResult{})
				d.batchResult(&v.Results[i])
			}
		}
	}
	return d.end()
}

// jsonDec scans one body in place; err is the first fault, after which
// every step is a no-op. skipUnknown makes an unknown member's value be
// skipped rather than refused.
type jsonDec struct {
	b           []byte
	i           int
	err         error
	skipUnknown bool
}

// maxSkipDepth bounds the nesting of a skipped value (encoding/json's own
// bound, on the whole body, is 10000).
const maxSkipDepth = 1000

func (d *jsonDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("json: %s at offset %d", what, d.i)
	}
}

func (d *jsonDec) ws() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *jsonDec) peek() byte {
	d.ws()
	if d.err != nil || d.i == len(d.b) {
		return 0
	}
	return d.b[d.i]
}

// open consumes c, the start of an object or array.
func (d *jsonDec) open(c byte) bool {
	if d.peek() != c {
		d.fail(fmt.Sprintf("want %q", c))
		return false
	}
	d.i++
	return true
}

// end requires that only whitespace follows the body's value.
func (d *jsonDec) end() error {
	if d.peek() != 0 {
		d.fail("trailing bytes after the body")
	}
	return d.err
}

// member steps to an object's next member, n members in, and consumes its
// key's opening quote; for n = 0 it first consumes the object's opening
// brace. It returns false at the closing brace and on any fault.
func (d *jsonDec) member(n int) bool {
	if n == 0 && !d.open('{') {
		return false
	}
	c := d.peek()
	if c == '}' {
		d.i++
		return false
	}
	if n > 0 {
		if c != ',' {
			d.fail("want ',' or '}'")
			return false
		}
		d.i++
		c = d.peek()
	}
	if c != '"' {
		d.fail("want a key")
		return false
	}
	d.i++
	return true
}

// key reads the member's key and its colon, and returns the key's index in
// names; seen holds the indexes read so far. An escaped, repeated or
// case-folded key is a fault (-1), and so is an unknown one unless
// skipUnknown is set: then its value is skipped and key returns -1.
func (d *jsonDec) key(seen *uint32, names ...string) int {
	rest := d.b[d.i:]
	// Bodies list their keys in field order, so the search starts one past
	// the furthest field read so far and wraps around.
	at, i := -1, bits.Len32(*seen)
	for range names {
		if i == len(names) {
			i = 0
		}
		if name := names[i]; len(rest) > len(name) && rest[len(name)] == '"' && string(rest[:len(name)]) == name {
			at = i
			break
		}
		i++
	}
	if at < 0 {
		d.unknown(names)
		return -1
	}
	if *seen&(1<<at) != 0 {
		d.fail(fmt.Sprintf("repeated key %q", names[at]))
		return -1
	}
	*seen |= 1 << at
	d.i += len(names[at]) + 1
	if !d.colon() {
		return -1
	}
	return at
}

// unknown reads a key that matches none of names and, under skipUnknown,
// skips its value. encoding/json would match a case-folded or escaped key
// to a field, so those stay faults.
func (d *jsonDec) unknown(names []string) {
	start := d.i
	escaped := d.strBody()
	if d.err != nil {
		return
	}
	k := d.b[start : d.i-1]
	if escaped {
		d.fail(fmt.Sprintf("escaped key %q", k))
		return
	}
	for _, name := range names {
		if bytes.EqualFold(k, []byte(name)) {
			d.fail(fmt.Sprintf("key %q for %q", k, name))
			return
		}
	}
	if !d.skipUnknown {
		d.fail(fmt.Sprintf("unknown field %q", k))
		return
	}
	if d.colon() {
		d.skip(0)
	}
}

func (d *jsonDec) colon() bool {
	if d.peek() != ':' {
		d.fail("want ':'")
		return false
	}
	d.i++
	return true
}

// skip consumes one value of any kind, checking its syntax as
// encoding/json does; depth is how deeply it sits in skipped values.
func (d *jsonDec) skip(depth int) {
	if depth > maxSkipDepth {
		d.fail("skipped value nested too deep")
		return
	}
	switch d.peek() {
	case '"':
		d.i++
		d.strBody()
	case '{':
		for n := 0; d.member(n); n++ {
			if d.strBody(); d.colon() {
				d.skip(depth + 1)
			}
		}
	case '[':
		d.i++
		for n := 0; d.element(n); n++ {
			d.skip(depth + 1)
		}
	case 't', 'f':
		d.bool()
	case 'n':
		if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
			d.fail("want null")
			return
		}
		d.i += 4
	default:
		d.number()
	}
}

// strBody scans a string literal's body, from just past its opening quote
// to just past its closing one, checking its escapes; it reports whether
// it held one.
func (d *jsonDec) strBody() (escaped bool) {
	for d.err == nil {
		if d.i == len(d.b) {
			d.fail("unterminated string")
			break
		}
		c := d.b[d.i]
		d.i++
		switch {
		case c == '"':
			return escaped
		case c < 0x20:
			d.fail("control character in string")
		case c == '\\':
			escaped = true
			d.escape()
		}
	}
	return escaped
}

// escape consumes an escape sequence past its backslash.
func (d *jsonDec) escape() {
	if d.i == len(d.b) {
		d.fail("unterminated string")
		return
	}
	c := d.b[d.i]
	d.i++
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
	case 'u':
		for end := d.i + 4; d.i < end; d.i++ {
			if d.i == len(d.b) || !isHex(d.b[d.i]) {
				d.fail("bad \\u escape")
				return
			}
		}
	default:
		d.fail("bad escape")
	}
}

func isHex(c byte) bool { return c-'0' <= 9 || (c|0x20)-'a' <= 5 }

// element steps to an array's next element, n elements in; it returns
// false at the closing bracket and on any fault.
func (d *jsonDec) element(n int) bool {
	switch c := d.peek(); {
	case c == ']':
		d.i++
		return false
	case n == 0:
	case c == ',':
		d.i++
	default:
		d.fail("want ',' or ']'")
	}
	return d.err == nil
}

// number consumes one JSON number literal and returns it.
func (d *jsonDec) number() []byte {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if !d.digits() {
		d.fail("want a number")
		return nil
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			d.fail("want a digit")
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.fail("want a digit")
		}
	}
	return d.b[start:d.i]
}

func (d *jsonDec) digits() bool {
	b, i := d.b, d.i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	start := d.i
	d.i = i
	return i > start
}

// float reads a number the way encoding/json does, through
// strconv.ParseFloat; out of range is a fault, as it is there.
func (d *jsonDec) float() float64 {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail(fmt.Sprintf("number %s out of range", lit))
	}
	return f
}

// int reads a number the way encoding/json does for an int field: only an
// integer literal in range.
func (d *jsonDec) int() int {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		d.fail(fmt.Sprintf("number %s is not an int", lit))
	}
	return int(n)
}

func (d *jsonDec) bool() bool {
	d.ws()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
	default:
		d.fail("want true or false")
	}
	return false
}

// str reads a string. One of plain printable ASCII is sliced out (the
// objectives without a copy); one with escapes or other bytes goes
// through encoding/json, which owns escapes and invalid UTF-8.
func (d *jsonDec) str() string {
	if d.peek() != '"' {
		d.fail("want a string")
		return ""
	}
	start := d.i
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			switch s := d.b[start+1 : d.i-1]; string(s) {
			case ObjectiveMinEnergy:
				return ObjectiveMinEnergy
			case ObjectiveMaxAccuracy:
				return ObjectiveMaxAccuracy
			default:
				return string(s)
			}
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.slowStr(start)
		}
	}
	d.fail("unterminated string")
	return ""
}

// slowStr decodes the string literal that starts at start through
// encoding/json.
func (d *jsonDec) slowStr(start int) string {
	d.i = start + 1
	if d.strBody(); d.err != nil {
		return ""
	}
	var s string
	if err := json.Unmarshal(d.b[start:d.i], &s); err != nil {
		d.fail(fmt.Sprintf("bad string: %v", err))
	}
	return s
}

func (d *jsonDec) decideRequest(v *DecideRequest) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "stream", "spec") {
		case 0:
			v.Stream = d.int()
		case 1:
			d.spec(&v.Spec)
		}
	}
}

func (d *jsonDec) spec(v *Spec) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "objective", "deadline_s", "energy_budget_j", "accuracy_goal", "prth") {
		case 0:
			v.Objective = d.str()
		case 1:
			v.DeadlineS = d.float()
		case 2:
			v.EnergyBudgetJ = d.float()
		case 3:
			v.AccuracyGoal = d.float()
		case 4:
			v.Prth = d.float()
		}
	}
}

func (d *jsonDec) decision(v *Decision) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "model", "cap", "cap_w", "planned_stop_s", "overhead_s") {
		case 0:
			v.Model = d.int()
		case 1:
			v.Cap = d.int()
		case 2:
			v.CapW = d.float()
		case 3:
			v.PlannedStopS = d.float()
		case 4:
			v.OverheadS = d.float()
		}
	}
}

func (d *jsonDec) estimate(v *Estimate) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "model", "cap", "stop_stage", "run_to_deadline", "lat_mean_s",
			"pr_deadline", "quality", "pr_quality", "energy_j", "planned_stop_s") {
		case 0:
			v.Model = d.int()
		case 1:
			v.Cap = d.int()
		case 2:
			v.StopStage = d.int()
		case 3:
			v.RunToDeadline = d.bool()
		case 4:
			v.LatMeanS = d.float()
		case 5:
			v.PrDeadline = d.float()
		case 6:
			v.Quality = d.float()
		case 7:
			v.PrQuality = d.float()
		case 8:
			v.EnergyJ = d.float()
		case 9:
			v.PlannedStopS = d.float()
		}
	}
}

func (d *jsonDec) feedback(v *Feedback) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "decision", "latency_s", "completed_stage", "idle_power_w") {
		case 0:
			d.decision(&v.Decision)
		case 1:
			v.LatencyS = d.float()
		case 2:
			v.CompletedStage = d.int()
		case 3:
			v.IdlePowerW = d.float()
		}
	}
}

func (d *jsonDec) batchResult(v *BatchResult) {
	var seen uint32
	for n := 0; d.member(n); n++ {
		switch d.key(&seen, "stream", "decision", "estimate") {
		case 0:
			v.Stream = d.int()
		case 1:
			d.decision(&v.Decision)
		case 2:
			d.estimate(&v.Estimate)
		}
	}
}
