package binwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/alert-project/alert"
)

// FuzzBinaryFrame feeds arbitrary bytes to the frame parser and the
// typed decoders, checking the protocol's two safety properties:
//
//  1. No input panics or makes the parser read past what it was given.
//  2. Any accepted frame is a fixed point: decoding it and re-encoding
//     the result reproduces the input bytes exactly. Together with the
//     strict length/enum checks this means every logical message has
//     exactly one wire form — the same canonical-binary discipline
//     FuzzMembershipWire pins for the gossip payload.
func FuzzBinaryFrame(f *testing.F) {
	spec := alert.Spec{Objective: alert.MaximizeAccuracy, Deadline: 0.2, EnergyBudget: 9, AccuracyGoal: 0.9, Prth: 0.5}
	var d alert.Decision
	d.Model, d.Cap, d.CapW, d.PlannedStop, d.Overhead = 1, -1, 32.5, 0.1, 1e-6
	var e alert.Estimate
	e.Model, e.Cap, e.StopStage, e.RunToDeadline = 1, 2, -1, true
	e.LatMean, e.PrDeadline, e.Quality, e.PrQuality, e.Energy, e.PlannedStop = 0.05, 0.9, 0.8, 1, 2.5, 0.1
	fb := alert.Feedback{Decision: d, Latency: 0.07, CompletedStage: 3, IdlePowerW: 11}

	f.Add(AppendDecide(nil, 1, 5, spec))
	f.Add(AppendDecideResp(nil, 2, d, e, "n1"))
	f.Add(AppendObserve(nil, 3, 5, fb))
	f.Add(AppendObserveResp(nil, 4))
	// Retired types 5 and 6 (the old batch pair): a parseable envelope
	// with no typed layout.
	f.Add(endFrame(binary.LittleEndian.AppendUint32(beginFrame(nil, 5, 5), 1), 0))
	f.Add(endFrame(binary.LittleEndian.AppendUint32(beginFrame(nil, 6, 6), 0), 0))
	// Envelopes the strict decoders must refuse: an unknown objective byte
	// and a decide body one byte short.
	badObjective := AppendDecide(nil, 7, 5, spec)
	badObjective[len(badObjective)-specLen] = 9
	f.Add(badObjective)
	short := AppendDecide(nil, 8, 5, spec)
	f.Add(endFrame(short[:len(short)-1], 0))
	f.Add(AppendError(nil, 9, CodeOverloaded, 50, "queue full"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendDecide(nil, 1, 5, spec)[:10])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		if err != nil {
			if errors.Is(err, ErrShortFrame) && len(data) >= 4+int(frameRest)+MaxFrame {
				t.Fatalf("%d bytes reported short", len(data))
			}
			return
		}
		if n < 4+frameRest || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if fr.Version != Version {
			return // structurally fine, but not ours to re-encode
		}
		frame := data[:n]
		var re []byte
		switch fr.Type {
		case MsgDecide:
			stream, spec, err := DecodeDecide(fr.Body)
			if err != nil {
				return
			}
			re = AppendDecide(nil, fr.ID, stream, spec)
		case MsgDecideResp:
			d, e, node, err := DecodeDecideResp(fr.Body)
			if err != nil {
				return
			}
			re = AppendDecideResp(nil, fr.ID, d, e, node)
		case MsgObserve:
			stream, fb, err := DecodeObserve(fr.Body)
			if err != nil {
				return
			}
			re = AppendObserve(nil, fr.ID, stream, fb)
		case MsgObserveResp:
			if DecodeObserveResp(fr.Body) != nil {
				return
			}
			re = AppendObserveResp(nil, fr.ID)
		case MsgError:
			code, ms, msg, err := DecodeError(fr.Body)
			if err != nil {
				return
			}
			re = AppendError(nil, fr.ID, code, ms, msg)
		default:
			return // unknown type: parseable envelope, no typed layout
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("decode/re-encode is not a fixed point:\n in  %x\n out %x", frame, re)
		}
	})
}

// FuzzReader feeds arbitrary bytes through a Reader three ways — one byte
// per Read, half of each Read's room, and all at once — and requires each
// to yield exactly the frames ParseFrame finds on the same bytes in one
// piece, then the error it finds: io.EOF where the input ends between
// frames, a truncation where it ends inside one, and ParseFrame's own
// error for a malformed length. On the way, Buffered must be true exactly
// when Next returns a frame without reading.
func FuzzReader(f *testing.F) {
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	var e alert.Estimate
	pipelined := AppendDecide(nil, 1, 5, spec)
	pipelined = AppendObserveResp(pipelined, 2)
	pipelined = AppendDecideResp(pipelined, 3, alert.Decision{}, e, "n1")
	pipelined = AppendError(pipelined, 4, CodeOverloaded, 50, "queue full")
	f.Add(pipelined)
	f.Add(pipelined[:len(pipelined)-3])
	f.Add(pipelined[:len(pipelined)-20])
	f.Add(AppendError(nil, 5, CodeInternal, 0, string(make([]byte, MaxFrame))))
	f.Add(append(AppendObserveResp(nil, 6), 0xff, 0xff, 0xff, 0xff))
	f.Add(append(AppendObserveResp(nil, 7), 3, 0, 0, 0, 1, 2, 3))
	f.Add([]byte{})
	f.Add([]byte{1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Frame
		var wantErr error
		for off := 0; off < len(data); {
			fr, n, err := ParseFrame(data[off:])
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, fr)
			off += n
		}
		for _, src := range []struct {
			name string
			r    io.Reader
		}{
			{"one byte", iotest.OneByteReader(bytes.NewReader(data))},
			{"half", iotest.HalfReader(bytes.NewReader(data))},
			{"whole", bytes.NewReader(data)},
		} {
			cr := &countingReader{src: src.r}
			rd := NewReader(cr)
			for i := 0; ; i++ {
				buffered, before := rd.Buffered(), cr.reads
				fr, err := rd.Next()
				if buffered && (err != nil || cr.reads != before) {
					t.Fatalf("%s, frame %d: Buffered() but Next read (%d reads) or failed (%v)", src.name, i, cr.reads-before, err)
				}
				if !buffered && err == nil && cr.reads == before {
					t.Fatalf("%s, frame %d: a frame came without a read but Buffered() was false", src.name, i)
				}
				if err != nil {
					if i != len(want) {
						t.Fatalf("%s: %v after %d frames, ParseFrame found %d", src.name, err, i, len(want))
					}
					checkReaderErr(t, src.name, err, wantErr)
					break
				}
				if i == len(want) {
					t.Fatalf("%s: frame %d beyond the %d ParseFrame found", src.name, i, len(want))
				}
				w := want[i]
				if fr.Version != w.Version || fr.Type != w.Type || fr.ID != w.ID || !bytes.Equal(fr.Body, w.Body) {
					t.Fatalf("%s, frame %d: %+v, ParseFrame found %+v", src.name, i, fr, w)
				}
			}
		}
	})
}

// checkReaderErr requires the Reader's error at the end of a stream to be
// the one ParseFrame's wantErr (nil after the last whole frame) implies.
func checkReaderErr(t *testing.T, name string, err, wantErr error) {
	t.Helper()
	switch {
	case wantErr == nil:
		if err != io.EOF {
			t.Fatalf("%s: %v at a frame boundary, want io.EOF", name, err)
		}
	case errors.Is(wantErr, ErrShortFrame):
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "binwire: truncated frame ") {
			t.Fatalf("%s: %v, want a truncation (ParseFrame: %v)", name, err, wantErr)
		}
	default:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: %v, ParseFrame found %v", name, err, wantErr)
		}
	}
}
