// Package binwire is the binary wire protocol of the serving layer's
// per-input loop: a versioned, length-prefixed framing for the decide and
// observe messages the HTTP/JSON API also carries, plus errors, designed
// for persistent TCP connections and a zero-allocation steady state. Many
// decides travel as pipelined decide frames; batches and the stream ops
// (evict, export, import) are HTTP-only.
//
// Every frame is
//
//	uint32  payload length (version byte through end of body)
//	byte    protocol version (Version)
//	byte    message type (MsgType)
//	uint64  request id (echoed verbatim in the response frame)
//	body    fixed-width little-endian layout per type
//
// All integers are little-endian; all float64 fields travel as their IEEE
// 754 bit patterns (math.Float64bits), the same canonical-binary
// discipline as core.SessionSnapshot — a decide request decoded from the
// wire is bit-identical to the one the client held, so decision sequences
// over this transport are byte-identical to the in-process path.
//
// Encoding is append-style into caller-owned buffers, which callers keep
// and reuse, and never emits a frame the decoder rejects: a node id or an
// error message too long for MaxFrame is cut. Decoding aliases the input
// and never copies; a Reader parses each frame where it lies in its one
// fixed buffer. The decoder is
// strict: it never panics, never reads past the declared payload, and
// rejects any body whose length or enum bytes deviate from the canonical
// encoding — an accepted frame always re-encodes to the exact same bytes
// (the FuzzBinaryFrame fixed point). The request id lets a client
// pipeline many requests on one connection and match responses by id
// rather than by order.
package binwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode/utf8"

	"github.com/alert-project/alert"
)

// Version is the protocol version carried in every frame. A server
// answers a frame whose version it does not speak with an error frame
// naming its own version — that reply is the whole version negotiation.
const Version byte = 1

// MaxFrame bounds a frame's payload (version byte through body end). The
// largest frame the protocol sends is a decide-resp (105 bytes plus the
// node id) or an error frame (22 bytes plus the message), so 4 KiB holds
// every legal frame, and a length prefix declaring more fails before
// anything is allocated or read.
const MaxFrame = 4 << 10

// ReadBuffer is the size of a Reader's one buffer. It holds a few hundred
// frames of the per-input loop, so one read brings in a pipelined burst,
// and more than the largest frame, so every frame is parsed where it lies.
const ReadBuffer = 16 << 10

// MaxNodeID is the longest node id a decide-resp frame carries within
// MaxFrame; AppendDecideResp cuts a longer one.
const MaxNodeID = MaxFrame - (frameRest + decisionLen + estimateLen + 2)

// maxErrorMsg is the longest message an error frame carries within
// MaxFrame; AppendError cuts a longer one.
const maxErrorMsg = MaxFrame - (frameRest + errHeaderLen)

// A frame and its length prefix always fit in a Reader's buffer.
var _ [ReadBuffer - 4 - MaxFrame]struct{}

// MsgType identifies a frame's body layout.
type MsgType byte

// Message types. Requests and responses are distinct types so a decoder
// never guesses a direction. Types 5–13 are retired (the batch and stream
// ops they carried are HTTP-only) and must not be reassigned: an older
// peer's frame of those types has to meet a 400, not a misparse.
const (
	MsgDecide      MsgType = 1  // int64 stream + spec
	MsgDecideResp  MsgType = 2  // decision + estimate + node id string
	MsgObserve     MsgType = 3  // int64 stream + feedback
	MsgObserveResp MsgType = 4  // empty
	MsgError       MsgType = 14 // uint16 code + int64 retry_after_ms + uint16 len + message
)

// Error codes carried by MsgError frames. They reuse the HTTP status
// numbers so the two transports share one overload vocabulary: 429/503
// carry a retry_after_ms hint and mean "shed before any state was
// touched, retry safely".
const (
	CodeBadRequest  uint16 = 400
	CodeNotFound    uint16 = 404
	CodeConflict    uint16 = 409
	CodeOverloaded  uint16 = 429
	CodeInternal    uint16 = 500
	CodeUnavailable uint16 = 503
)

// Fixed body-section sizes.
const (
	frameRest    = 1 + 1 + 8 // version + type + id, inside the payload
	specLen      = 1 + 4*8
	decisionLen  = 4 + 4 + 3*8
	estimateLen  = 4 + 4 + 4 + 1 + 6*8
	feedbackLen  = decisionLen + 8 + 4 + 8
	decideLen    = 8 + specLen
	observeLen   = 8 + feedbackLen
	errHeaderLen = 2 + 8 + 2
)

// objective wire bytes; any other byte is rejected.
const (
	objMinEnergy   byte = 0
	objMaxAccuracy byte = 1
)

// Frame is one parsed frame. Body aliases the buffer it was parsed from
// and is valid only until that buffer is reused.
type Frame struct {
	Version byte
	Type    MsgType
	ID      uint64
	Body    []byte
}

// ErrShortFrame reports that the input ends before the declared frame
// does — the caller should read more bytes and retry.
var ErrShortFrame = errors.New("binwire: short frame")

// ParseFrame parses one frame from the front of data, returning the frame
// and the bytes consumed. It returns ErrShortFrame (wrapped) when data is
// a prefix of a valid frame, and a fatal error for anything malformed;
// it never panics and never reads past the declared payload.
func ParseFrame(data []byte) (Frame, int, error) {
	if len(data) < 4 {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes", ErrShortFrame, len(data))
	}
	n, err := payloadLen(data)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(data)-4 < n {
		return Frame{}, 0, fmt.Errorf("%w: %d of %d payload bytes", ErrShortFrame, len(data)-4, n)
	}
	return frameAt(data[4 : 4+n]), 4 + n, nil
}

// payloadLen checks the length prefix at the front of hdr (at least 4
// bytes) and returns the payload length it declares.
func payloadLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < frameRest {
		return 0, fmt.Errorf("binwire: payload length %d below the %d-byte frame header", n, frameRest)
	}
	if n > MaxFrame {
		return 0, fmt.Errorf("binwire: payload length %d exceeds the %d-byte frame cap", n, MaxFrame)
	}
	return int(n), nil
}

// frameAt parses a payload whose length payloadLen accepted. Body's
// capacity ends with the frame, so appending to it never overwrites the
// next one.
func frameAt(p []byte) Frame {
	return Frame{Version: p[0], Type: MsgType(p[1]), ID: binary.LittleEndian.Uint64(p[2:]), Body: p[frameRest:len(p):len(p)]}
}

// Reader reads frames from a stream into one ReadBuffer-sized buffer and
// parses them where they lie: Next returns a frame whose Body aliases the
// buffer and is valid only until the next call. After NewReader nothing
// is allocated, and a pipelined burst costs one Read.
type Reader struct {
	src  io.Reader
	buf  []byte // len ReadBuffer; buf[r:w] is read but not yet returned
	r, w int
	err  error // the source's error, returned once the bytes before it are used
}

// NewReader wraps a stream (typically a net.Conn).
func NewReader(r io.Reader) *Reader { return &Reader{src: r, buf: make([]byte, ReadBuffer)} }

// Buffered reports whether a whole, well-formed frame is already buffered,
// so that Next returns it without reading.
func (rd *Reader) Buffered() bool {
	if rd.w-rd.r < 4 {
		return false
	}
	n, err := payloadLen(rd.buf[rd.r:])
	return err == nil && rd.w-rd.r-4 >= n
}

// Next reads one frame. io.EOF means a clean end between frames; any
// other error (including a frame exceeding MaxFrame) is fatal to the
// stream.
func (rd *Reader) Next() (Frame, error) {
	for rd.w-rd.r < 4 {
		if err := rd.fill(); err != nil {
			if err == io.EOF && rd.w > rd.r {
				err = fmt.Errorf("binwire: truncated frame header: %w", io.ErrUnexpectedEOF)
			}
			return Frame{}, err
		}
	}
	n, err := payloadLen(rd.buf[rd.r:])
	if err != nil {
		return Frame{}, err
	}
	for rd.w-rd.r-4 < n {
		if err := rd.fill(); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("binwire: truncated frame payload: %w", err)
		}
	}
	f := frameAt(rd.buf[rd.r+4 : rd.r+4+n])
	rd.r += 4 + n
	return f, nil
}

// fill moves the unread bytes to the front of the buffer, as bufio's fill
// does, and reads once into the space behind them. Since the unread bytes
// are less than one frame, that space always holds the rest of it.
func (rd *Reader) fill() error {
	if rd.err != nil {
		return rd.err
	}
	if rd.r > 0 {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.r = 0
	}
	for empty := 0; ; empty++ {
		n, err := rd.src.Read(rd.buf[rd.w:])
		rd.w += n
		rd.err = err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
		if empty == 100 { // bufio's limit on a source that returns nothing
			return io.ErrNoProgress
		}
	}
}

// beginFrame appends the frame header with a length placeholder; the
// caller appends the body and closes with endFrame(start).
func beginFrame(b []byte, t MsgType, id uint64) []byte {
	b = append(b, 0, 0, 0, 0)
	b = append(b, Version, byte(t))
	return binary.LittleEndian.AppendUint64(b, id)
}

// endFrame patches the length prefix of the frame opened at start.
func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendI32(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendSpec(b []byte, s alert.Spec) []byte {
	o := objMinEnergy
	if s.Objective == alert.MaximizeAccuracy {
		o = objMaxAccuracy
	}
	b = append(b, o)
	b = appendF64(b, s.Deadline)
	b = appendF64(b, s.EnergyBudget)
	b = appendF64(b, s.AccuracyGoal)
	return appendF64(b, s.Prth)
}

func appendDecision(b []byte, d alert.Decision) []byte {
	b = appendI32(b, d.Model)
	b = appendI32(b, d.Cap)
	b = appendF64(b, d.CapW)
	b = appendF64(b, d.PlannedStop)
	return appendF64(b, d.Overhead)
}

func appendEstimate(b []byte, e alert.Estimate) []byte {
	b = appendI32(b, e.Model)
	b = appendI32(b, e.Cap)
	b = appendI32(b, e.StopStage)
	if e.RunToDeadline {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendF64(b, e.LatMean)
	b = appendF64(b, e.PrDeadline)
	b = appendF64(b, e.Quality)
	b = appendF64(b, e.PrQuality)
	b = appendF64(b, e.Energy)
	return appendF64(b, e.PlannedStop)
}

func appendFeedback(b []byte, f alert.Feedback) []byte {
	b = appendDecision(b, f.Decision)
	b = appendF64(b, f.Latency)
	b = appendI32(b, f.CompletedStage)
	return appendF64(b, f.IdlePowerW)
}

// AppendDecide appends a MsgDecide frame.
func AppendDecide(dst []byte, id uint64, stream int, spec alert.Spec) []byte {
	start := len(dst)
	b := beginFrame(dst, MsgDecide, id)
	b = appendI64(b, int64(stream))
	b = appendSpec(b, spec)
	return endFrame(b, start)
}

// AppendDecideResp appends a MsgDecideResp frame. A node id longer than
// MaxNodeID is cut to fit.
func AppendDecideResp(dst []byte, id uint64, d alert.Decision, e alert.Estimate, nodeID string) []byte {
	nodeID = clip(nodeID, MaxNodeID)
	start := len(dst)
	b := beginFrame(dst, MsgDecideResp, id)
	b = appendDecision(b, d)
	b = appendEstimate(b, e)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(nodeID)))
	b = append(b, nodeID...)
	return endFrame(b, start)
}

// AppendObserve appends a MsgObserve frame.
func AppendObserve(dst []byte, id uint64, stream int, fb alert.Feedback) []byte {
	start := len(dst)
	b := beginFrame(dst, MsgObserve, id)
	b = appendI64(b, int64(stream))
	b = appendFeedback(b, fb)
	return endFrame(b, start)
}

// AppendObserveResp appends a (bodyless) MsgObserveResp frame.
func AppendObserveResp(dst []byte, id uint64) []byte {
	start := len(dst)
	return endFrame(beginFrame(dst, MsgObserveResp, id), start)
}

// AppendError appends a MsgError frame. retryAfterMs > 0 is the backoff
// hint that rides 429/503 rejections, the binary twin of the HTTP
// Retry-After header and retry_after_ms body field. A message that would
// not fit in MaxFrame is cut to fit.
func AppendError(dst []byte, id uint64, code uint16, retryAfterMs int64, msg string) []byte {
	msg = clip(msg, maxErrorMsg)
	start := len(dst)
	b := beginFrame(dst, MsgError, id)
	b = binary.LittleEndian.AppendUint16(b, code)
	b = appendI64(b, retryAfterMs)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	b = append(b, msg...)
	return endFrame(b, start)
}

// clip cuts s to at most n bytes; a cut through a UTF-8 sequence moves to
// its start, so valid UTF-8 stays valid.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for i := n; i > 0 && i > n-utf8.UTFMax; i-- {
		if utf8.RuneStart(s[i]) {
			return s[:i]
		}
	}
	return s[:n]
}

func errLen(t MsgType, got, want int) error {
	return fmt.Errorf("binwire: %s body is %d bytes, want %d", typeName(t), got, want)
}

func typeName(t MsgType) string {
	switch t {
	case MsgDecide:
		return "decide"
	case MsgDecideResp:
		return "decide-resp"
	case MsgObserve:
		return "observe"
	case MsgObserveResp:
		return "observe-resp"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("type-%d", byte(t))
	}
}

func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func getI32(b []byte) int {
	return int(int32(binary.LittleEndian.Uint32(b)))
}

func getI64(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}

func decodeSpec(b []byte) (alert.Spec, error) {
	var s alert.Spec
	switch b[0] {
	case objMinEnergy:
		s.Objective = alert.MinimizeEnergy
	case objMaxAccuracy:
		s.Objective = alert.MaximizeAccuracy
	default:
		return s, fmt.Errorf("binwire: unknown objective byte %d", b[0])
	}
	s.Deadline = getF64(b[1:])
	s.EnergyBudget = getF64(b[9:])
	s.AccuracyGoal = getF64(b[17:])
	s.Prth = getF64(b[25:])
	return s, nil
}

func decodeDecision(b []byte) alert.Decision {
	return alert.Decision{
		Model:       getI32(b),
		Cap:         getI32(b[4:]),
		CapW:        getF64(b[8:]),
		PlannedStop: getF64(b[16:]),
		Overhead:    getF64(b[24:]),
	}
}

func decodeEstimate(b []byte) (alert.Estimate, error) {
	var e alert.Estimate
	e.Model = getI32(b)
	e.Cap = getI32(b[4:])
	e.StopStage = getI32(b[8:])
	switch b[12] {
	case 0:
	case 1:
		e.RunToDeadline = true
	default:
		return e, fmt.Errorf("binwire: run-to-deadline byte %d is not 0 or 1", b[12])
	}
	e.LatMean = getF64(b[13:])
	e.PrDeadline = getF64(b[21:])
	e.Quality = getF64(b[29:])
	e.PrQuality = getF64(b[37:])
	e.Energy = getF64(b[45:])
	e.PlannedStop = getF64(b[53:])
	return e, nil
}

func decodeFeedback(b []byte) alert.Feedback {
	return alert.Feedback{
		Decision:       decodeDecision(b),
		Latency:        getF64(b[decisionLen:]),
		CompletedStage: getI32(b[decisionLen+8:]),
		IdlePowerW:     getF64(b[decisionLen+12:]),
	}
}

// DecodeDecide decodes a MsgDecide body.
func DecodeDecide(body []byte) (stream int, spec alert.Spec, err error) {
	if len(body) != decideLen {
		return 0, spec, errLen(MsgDecide, len(body), decideLen)
	}
	spec, err = decodeSpec(body[8:])
	return int(getI64(body)), spec, err
}

// DecodeDecideResp decodes a MsgDecideResp body. The node id string is
// the response's only allocation.
func DecodeDecideResp(body []byte) (alert.Decision, alert.Estimate, string, error) {
	const fixed = decisionLen + estimateLen + 2
	if len(body) < fixed {
		return alert.Decision{}, alert.Estimate{}, "", errLen(MsgDecideResp, len(body), fixed)
	}
	d := decodeDecision(body)
	e, err := decodeEstimate(body[decisionLen:])
	if err != nil {
		return d, e, "", err
	}
	n := int(binary.LittleEndian.Uint16(body[decisionLen+estimateLen:]))
	if len(body) != fixed+n {
		return d, e, "", fmt.Errorf("binwire: decide-resp node id declares %d bytes, %d remain", n, len(body)-fixed)
	}
	return d, e, string(body[fixed:]), nil
}

// DecodeObserve decodes a MsgObserve body.
func DecodeObserve(body []byte) (int, alert.Feedback, error) {
	if len(body) != observeLen {
		return 0, alert.Feedback{}, errLen(MsgObserve, len(body), observeLen)
	}
	return int(getI64(body)), decodeFeedback(body[8:]), nil
}

// DecodeObserveResp validates a MsgObserveResp body (it carries nothing).
func DecodeObserveResp(body []byte) error {
	if len(body) != 0 {
		return errLen(MsgObserveResp, len(body), 0)
	}
	return nil
}

// DecodeError decodes a MsgError body.
func DecodeError(body []byte) (code uint16, retryAfterMs int64, msg string, err error) {
	if len(body) < errHeaderLen {
		return 0, 0, "", errLen(MsgError, len(body), errHeaderLen)
	}
	code = binary.LittleEndian.Uint16(body)
	retryAfterMs = getI64(body[2:])
	n := int(binary.LittleEndian.Uint16(body[10:]))
	if len(body) != errHeaderLen+n {
		return 0, 0, "", fmt.Errorf("binwire: error message declares %d bytes, %d remain", n, len(body)-errHeaderLen)
	}
	return code, retryAfterMs, string(body[errHeaderLen:]), nil
}
