package binwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/alert-project/alert"
)

// quietNaN returns a NaN with a payload bit set, to prove float64 fields
// travel as raw bits rather than through any canonicalizing conversion.
func quietNaN() float64 {
	return math.Float64frombits(0x7ff8_0000_0000_0abc)
}

func sampleSpec() alert.Spec {
	return alert.Spec{
		Objective:    alert.MaximizeAccuracy,
		Deadline:     0.25,
		EnergyBudget: 12.5,
		AccuracyGoal: 0.9,
		Prth:         quietNaN(),
	}
}

func sampleDecision() alert.Decision {
	return alert.Decision{Model: 3, Cap: -1, CapW: 42.5, PlannedStop: 0.125, Overhead: quietNaN()}
}

func sampleEstimate() alert.Estimate {
	var e alert.Estimate
	e.Model = 7
	e.Cap = 2
	e.StopStage = -1
	e.RunToDeadline = true
	e.LatMean = 0.05
	e.PrDeadline = 0.99
	e.Quality = 0.87
	e.PrQuality = quietNaN()
	e.Energy = 3.5
	e.PlannedStop = 0.2
	return e
}

func sampleFeedback() alert.Feedback {
	return alert.Feedback{
		Decision:       sampleDecision(),
		Latency:        0.061,
		CompletedStage: -1,
		IdlePowerW:     quietNaN(),
	}
}

// parseOne parses data as exactly one frame.
func parseOne(t *testing.T, data []byte) Frame {
	t.Helper()
	f, n, err := ParseFrame(data)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if n != len(data) {
		t.Fatalf("ParseFrame consumed %d of %d bytes", n, len(data))
	}
	if f.Version != Version {
		t.Fatalf("version = %d, want %d", f.Version, Version)
	}
	return f
}

func TestDecideRoundTrip(t *testing.T) {
	spec := sampleSpec()
	raw := AppendDecide(nil, 77, -12, spec)
	f := parseOne(t, raw)
	if f.Type != MsgDecide || f.ID != 77 {
		t.Fatalf("frame header = %+v", f)
	}
	stream, got, err := DecodeDecide(f.Body)
	if err != nil {
		t.Fatalf("DecodeDecide: %v", err)
	}
	if stream != -12 {
		t.Fatalf("stream = %d, want -12", stream)
	}
	if math.Float64bits(got.Prth) != math.Float64bits(spec.Prth) {
		t.Fatalf("Prth bits changed: %x vs %x", math.Float64bits(got.Prth), math.Float64bits(spec.Prth))
	}
	got.Prth, spec.Prth = 0, 0
	if got != spec {
		t.Fatalf("spec = %+v, want %+v", got, spec)
	}
	if re := AppendDecide(nil, 77, -12, sampleSpec()); !bytes.Equal(re, raw) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestDecideRespRoundTrip(t *testing.T) {
	d, e := sampleDecision(), sampleEstimate()
	raw := AppendDecideResp(nil, 5, d, e, "node-a")
	f := parseOne(t, raw)
	gd, ge, node, err := DecodeDecideResp(f.Body)
	if err != nil {
		t.Fatalf("DecodeDecideResp: %v", err)
	}
	if node != "node-a" {
		t.Fatalf("node = %q", node)
	}
	if math.Float64bits(gd.Overhead) != math.Float64bits(d.Overhead) ||
		math.Float64bits(ge.PrQuality) != math.Float64bits(e.PrQuality) {
		t.Fatal("float bits changed in transit")
	}
	gd.Overhead, d.Overhead = 0, 0
	ge.PrQuality, e.PrQuality = 0, 0
	if gd != d || ge != e {
		t.Fatalf("decoded (%+v, %+v), want (%+v, %+v)", gd, ge, d, e)
	}
}

func TestObserveRoundTrip(t *testing.T) {
	fb := sampleFeedback()
	raw := AppendObserve(nil, 9, 4, fb)
	f := parseOne(t, raw)
	stream, got, err := DecodeObserve(f.Body)
	if err != nil {
		t.Fatalf("DecodeObserve: %v", err)
	}
	if stream != 4 {
		t.Fatalf("stream = %d", stream)
	}
	if math.Float64bits(got.IdlePowerW) != math.Float64bits(fb.IdlePowerW) ||
		math.Float64bits(got.Decision.Overhead) != math.Float64bits(fb.Decision.Overhead) {
		t.Fatal("float bits changed in transit")
	}
	got.IdlePowerW, fb.IdlePowerW = 0, 0
	got.Decision.Overhead, fb.Decision.Overhead = 0, 0
	if got != fb {
		t.Fatalf("feedback = %+v, want %+v", got, fb)
	}
}

func TestObserveRespAndErrorRoundTrip(t *testing.T) {
	f := parseOne(t, AppendObserveResp(nil, 2))
	if f.Type != MsgObserveResp || DecodeObserveResp(f.Body) != nil {
		t.Fatalf("observe-resp frame = %+v", f)
	}
	raw := AppendError(nil, 13, CodeOverloaded, 50, "queue full")
	ef := parseOne(t, raw)
	code, ms, msg, err := DecodeError(ef.Body)
	if err != nil || code != CodeOverloaded || ms != 50 || msg != "queue full" {
		t.Fatalf("DecodeError = %d, %d, %q, %v", code, ms, msg, err)
	}
}

func TestReaderStream(t *testing.T) {
	var wire []byte
	wire = AppendDecide(wire, 1, 0, sampleSpec())
	wire = AppendObserveResp(wire, 2)
	wire = AppendError(wire, 3, CodeUnavailable, 0, "draining")
	rd := NewReader(bytes.NewReader(wire))
	types := []MsgType{MsgDecide, MsgObserveResp, MsgError}
	for i, want := range types {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want || f.ID != uint64(i+1) {
			t.Fatalf("frame %d = %+v, want type %v id %d", i, f, want, i+1)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	whole := AppendDecide(nil, 1, 0, sampleSpec())
	for cut := 1; cut < len(whole); cut++ {
		rd := NewReader(bytes.NewReader(whole[:cut]))
		if _, err := rd.Next(); err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
	}
}

func TestStrictness(t *testing.T) {
	bad := func(name string, data []byte) {
		t.Helper()
		if _, _, err := ParseFrame(data); err == nil {
			f, _, _ := ParseFrame(data)
			t.Fatalf("%s: parsed as %+v, want error", name, f)
		}
	}
	// Payload length below the frame header.
	bad("short payload length", []byte{5, 0, 0, 0, Version, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	// Payload length above the cap.
	var huge [14]byte
	binary.LittleEndian.PutUint32(huge[:], MaxFrame+1)
	bad("oversized payload length", huge[:])

	// A valid frame with a corrupted objective byte must be rejected by
	// the typed decoder.
	raw := AppendDecide(nil, 1, 0, sampleSpec())
	raw[len(raw)-specLen] = 9
	f := parseOne(t, raw)
	if _, _, err := DecodeDecide(f.Body); err == nil {
		t.Fatal("bad objective byte accepted")
	}
	// Corrupted run-to-deadline byte.
	rraw := AppendDecideResp(nil, 1, sampleDecision(), sampleEstimate(), "")
	rraw[4+frameRest+decisionLen+12] = 7
	rf := parseOne(t, rraw)
	if _, _, _, err := DecodeDecideResp(rf.Body); err == nil {
		t.Fatal("bad run-to-deadline byte accepted")
	}
	// Wrong body lengths for the fixed layouts.
	if _, _, err := DecodeDecide(make([]byte, decideLen-1)); err == nil {
		t.Fatal("short decide body accepted")
	}
	if _, _, err := DecodeObserve(make([]byte, observeLen+1)); err == nil {
		t.Fatal("long observe body accepted")
	}
	if DecodeObserveResp([]byte{0}) == nil {
		t.Fatal("non-empty observe-resp body accepted")
	}
	if _, _, _, err := DecodeError([]byte{1}); err == nil {
		t.Fatal("short error body accepted")
	}
}

func TestNodeIDTooLongIsStillExact(t *testing.T) {
	// A 70k node id would overflow the uint16 length; the encoder is only
	// ever fed node ids from flags, but the decoder must stay exact if a
	// peer lies about the length.
	raw := AppendDecideResp(nil, 1, sampleDecision(), sampleEstimate(), strings.Repeat("n", 100))
	raw = raw[:len(raw)-1] // drop one byte of the name
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-4))
	f := parseOne(t, raw)
	if _, _, _, err := DecodeDecideResp(f.Body); err == nil {
		t.Fatal("truncated node id accepted")
	}
}

func TestEncodeDecodeZeroAlloc(t *testing.T) {
	spec := sampleSpec()
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendDecide(buf[:0], 1, 2, spec)
	}); n != 0 {
		t.Fatalf("AppendDecide allocates %.1f/op", n)
	}
	d, e := sampleDecision(), sampleEstimate()
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendDecideResp(buf[:0], 1, d, e, "node-a")
	}); n != 0 {
		t.Fatalf("AppendDecideResp allocates %.1f/op", n)
	}

	// Reader.Next + DecodeDecide over a looping stream: the payload
	// buffer is reused, so the steady state is allocation-free.
	frame := AppendDecide(nil, 1, 2, spec)
	lr := &loopReader{data: frame}
	rd := NewReader(lr)
	if _, err := rd.Next(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		f, err := rd.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if _, _, err := DecodeDecide(f.Body); err != nil {
			t.Fatalf("DecodeDecide: %v", err)
		}
	}); n != 0 {
		t.Fatalf("Reader.Next+DecodeDecide allocates %.1f/op", n)
	}
}

// loopReader replays the same bytes forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}
