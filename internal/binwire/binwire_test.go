package binwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

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
		_, err := rd.Next()
		want := "binwire: truncated frame header: unexpected EOF"
		if cut >= 4 {
			want = "binwire: truncated frame payload: unexpected EOF"
		}
		if err == nil || err.Error() != want || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want %q", cut, err, want)
		}
	}
	// A source that keeps returning nothing is an error, not a hang.
	if _, err := NewReader(emptyReader{}).Next(); err != io.ErrNoProgress {
		t.Fatalf("empty reads: %v, want io.ErrNoProgress", err)
	}
}

// emptyReader returns no bytes and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// countingReader counts the Reads that reach its source.
type countingReader struct {
	src   io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.src.Read(p)
}

// TestReaderBuffered delivers a stream of frames of every size, in chunks
// that cut frames and headers anywhere, and requires Buffered to be true
// exactly when the next Next returns a frame without reading.
func TestReaderBuffered(t *testing.T) {
	var wire []byte
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			wire = AppendDecide(wire, uint64(i), i, sampleSpec())
		case 1:
			wire = AppendObserveResp(wire, uint64(i))
		case 2:
			wire = AppendError(wire, uint64(i), CodeBadRequest, 0, strings.Repeat("x", 37*i))
		case 3:
			wire = AppendDecideResp(wire, uint64(i), sampleDecision(), sampleEstimate(), "node")
		}
	}
	for _, chunk := range []int{1, 3, 13, 64, 1000, ReadBuffer} {
		src := &countingReader{src: &chunkReader{data: wire, n: chunk}}
		rd := NewReader(src)
		for i := 0; ; i++ {
			buffered, before := rd.Buffered(), src.reads
			f, err := rd.Next()
			if err == io.EOF {
				if i != 40 {
					t.Fatalf("chunk %d: EOF after %d frames", chunk, i)
				}
				break
			}
			if err != nil {
				t.Fatalf("chunk %d frame %d: %v", chunk, i, err)
			}
			if f.ID != uint64(i) {
				t.Fatalf("chunk %d: frame %d has id %d", chunk, i, f.ID)
			}
			if read := src.reads > before; buffered == read {
				t.Fatalf("chunk %d frame %d: Buffered() = %v but Next read = %v", chunk, i, buffered, read)
			}
		}
	}
	// A buffered header that Next rejects is not a buffered frame.
	var bad [14]byte
	binary.LittleEndian.PutUint32(bad[:], MaxFrame+1)
	rd := NewReader(bytes.NewReader(bad[:]))
	if _, err := rd.Next(); err == nil {
		t.Fatal("oversized header accepted")
	}
	if rd.Buffered() {
		t.Fatal("Buffered() is true on an oversized header")
	}
}

// chunkReader delivers data at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// TestReaderAllocFree: after NewReader, Next allocates nothing — for a
// small frame, for a MaxFrame-sized one, and for frames split across
// reads that end mid-header and mid-payload.
func TestReaderAllocFree(t *testing.T) {
	biggest := AppendError(nil, 1, CodeInternal, 0, strings.Repeat("e", MaxFrame))
	if len(biggest) != 4+MaxFrame {
		t.Fatalf("largest error frame is %d bytes, want %d", len(biggest), 4+MaxFrame)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		chunk int
	}{
		{"decide", AppendDecide(nil, 1, 2, sampleSpec()), ReadBuffer},
		{"MaxFrame", biggest, ReadBuffer},
		{"decide split", AppendDecide(nil, 1, 2, sampleSpec()), 7},
		{"MaxFrame split", biggest, 999},
	} {
		rd := NewReader(&loopReader{data: tc.frame, chunk: tc.chunk})
		if n := testing.AllocsPerRun(100, func() {
			f, err := rd.Next()
			if err != nil {
				t.Fatalf("%s: Next: %v", tc.name, err)
			}
			if len(f.Body) != len(tc.frame)-4-frameRest {
				t.Fatalf("%s: body is %d bytes", tc.name, len(f.Body))
			}
		}); n != 0 {
			t.Errorf("%s: Reader.Next allocates %.1f/op", tc.name, n)
		}
	}
	// Decoding what Next returned allocates nothing either.
	rd := NewReader(&loopReader{data: AppendDecide(nil, 1, 2, sampleSpec())})
	if n := testing.AllocsPerRun(100, func() {
		f, _ := rd.Next()
		if _, _, err := DecodeDecide(f.Body); err != nil {
			t.Fatalf("DecodeDecide: %v", err)
		}
	}); n != 0 {
		t.Fatalf("Reader.Next+DecodeDecide allocates %.1f/op", n)
	}
}

// TestReaderOversizedHeaderAllocatesNothing: a header declaring more than
// MaxFrame fails at once, before the body is read or room for it made.
func TestReaderOversizedHeaderAllocatesNothing(t *testing.T) {
	for _, declared := range []uint32{MaxFrame + 1, 8 << 20, math.MaxUint32} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], declared)
		src := &countingReader{src: &loopReader{data: hdr[:]}}
		rd := NewReader(src)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("declared %d: %v, want the frame-cap error", declared, err)
			}
		}
		runtime.ReadMemStats(&after)
		// Only the error value is allocated (a few hundred bytes, more
		// under -race), never room for the declared body.
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("declared %d: a rejected header costs %d heap bytes, want only its error", declared, per)
		}
		if src.reads != 1 {
			t.Errorf("declared %d: %d reads, want the one that brought the header", declared, src.reads)
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
	// The encoder cuts node ids to MaxNodeID, but the decoder must stay
	// exact if a peer lies about the length.
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

}

// loopReader replays the same bytes forever, at most chunk bytes per Read
// when chunk > 0.
type loopReader struct {
	data  []byte
	off   int
	chunk int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	if l.chunk > 0 && len(p) > l.chunk {
		p = p[:l.chunk]
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestEncodersFitTheDecoder builds every frame kind from maximal inputs —
// extreme numbers, and node ids and error messages at, just past and far
// past what MaxFrame holds, some cut through a multi-byte rune — and
// requires each to parse and decode: no encoder emits a frame the decoder
// rejects. A cut keeps a prefix that is still valid UTF-8.
func TestEncodersFitTheDecoder(t *testing.T) {
	spec := alert.Spec{Objective: alert.MaximizeAccuracy, Deadline: math.MaxFloat64, EnergyBudget: math.Inf(1), AccuracyGoal: -math.MaxFloat64, Prth: quietNaN()}
	d := alert.Decision{Model: math.MaxInt32, Cap: math.MinInt32, CapW: math.Inf(-1), PlannedStop: math.MaxFloat64, Overhead: quietNaN()}
	e := sampleEstimate()
	e.Model, e.Cap, e.StopStage = math.MaxInt32, math.MinInt32, math.MaxInt32
	fb := alert.Feedback{Decision: d, Latency: math.MaxFloat64, CompletedStage: math.MinInt32, IdlePowerW: math.Inf(1)}

	parse := func(name string, frame []byte) Frame {
		t.Helper()
		f, n, err := ParseFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("%s: ParseFrame = %d of %d bytes, %v", name, n, len(frame), err)
		}
		return f
	}
	if _, _, err := DecodeDecide(parse("decide", AppendDecide(nil, math.MaxUint64, math.MinInt64, spec)).Body); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if _, _, err := DecodeObserve(parse("observe", AppendObserve(nil, math.MaxUint64, math.MaxInt64, fb)).Body); err != nil {
		t.Fatalf("observe: %v", err)
	}
	if err := DecodeObserveResp(parse("observe-resp", AppendObserveResp(nil, math.MaxUint64)).Body); err != nil {
		t.Fatalf("observe-resp: %v", err)
	}

	// Strings of n bytes, ASCII and with a 3-byte rune straddling the cut.
	texts := func(limit int) []string {
		var out []string
		for _, n := range []int{0, limit - 1, limit, limit + 1, 65535, 70000} {
			out = append(out, strings.Repeat("a", n))
			if n > 2 {
				out = append(out, strings.Repeat("a", limit-1)+strings.Repeat("€", (n-limit+3)/3+1))
			}
		}
		return out
	}
	checkCut := func(name, in, out string, limit int) {
		t.Helper()
		if len(out) > limit || !strings.HasPrefix(in, out) || !utf8.ValidString(out) {
			t.Fatalf("%s: %d-byte input came back as %d bytes (limit %d, valid UTF-8 %v)", name, len(in), len(out), limit, utf8.ValidString(out))
		}
		if len(in) <= limit && out != in {
			t.Fatalf("%s: a %d-byte input that fits was cut to %d", name, len(in), len(out))
		}
		if len(in) > limit && len(out) < limit-utf8.UTFMax {
			t.Fatalf("%s: a %d-byte input was cut to %d, want close to %d", name, len(in), len(out), limit)
		}
	}
	for _, node := range texts(MaxNodeID) {
		_, _, got, err := DecodeDecideResp(parse("decide-resp", AppendDecideResp(nil, 1, d, e, node)).Body)
		if err != nil {
			t.Fatalf("decide-resp with a %d-byte node id: %v", len(node), err)
		}
		checkCut("node id", node, got, MaxNodeID)
	}
	for _, msg := range texts(maxErrorMsg) {
		code, ms, got, err := DecodeError(parse("error", AppendError(nil, 1, math.MaxUint16, math.MaxInt64, msg)).Body)
		if err != nil || code != math.MaxUint16 || ms != math.MaxInt64 {
			t.Fatalf("error with a %d-byte message: %d, %d, %v", len(msg), code, ms, err)
		}
		checkCut("error message", msg, got, maxErrorMsg)
	}
}
