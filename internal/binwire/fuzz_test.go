package binwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

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
	f.Add(AppendBatch(nil, 5, []alert.BatchRequest{{Stream: 1, Spec: spec}, {Stream: 2, Spec: spec}}))
	f.Add(appendBatchResp(nil, 6, []alert.BatchResult{{Stream: 1, Decision: d, Estimate: e}}))
	// Envelopes the strict decoders must refuse: an unknown objective byte
	// and an empty batch.
	badObjective := AppendDecide(nil, 7, 5, spec)
	badObjective[len(badObjective)-specLen] = 9
	f.Add(badObjective)
	f.Add(endFrame(binary.LittleEndian.AppendUint32(beginFrame(nil, MsgBatch, 8), 0), 0))
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
		case MsgBatch:
			reqs, err := DecodeBatch(fr.Body, nil)
			if err != nil {
				return
			}
			re = AppendBatch(nil, fr.ID, reqs)
		case MsgBatchResp:
			res, err := DecodeBatchResp(fr.Body, nil)
			if err != nil {
				return
			}
			re = appendBatchResp(nil, fr.ID, res)
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
