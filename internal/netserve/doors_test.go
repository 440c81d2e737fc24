package netserve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// observed is one feedback of the doors script.
type observed struct {
	stream int
	fb     alert.Feedback
}

// TestEveryDoorSameDecisions pins the one decide path from every door that
// leads to it. The same script — rounds of "apply last round's feedback,
// then decide for a rotating, sometimes repeating, set of streams" — is
// played through the three public entries (a Server.Decide loop,
// Server.DecideBatch, a reused ServerBurst), through HTTP decide-batch and
// through binwire's pipelined decide frames — on a raw binwire listener and
// on a connection upgraded from the HTTP port — each against its own fresh
// server, and every stream's decision
// tokens must come out byte-identical. Feedback is computed from the
// decisions a door returned, so a door that diverged once keeps diverging.
func TestEveryDoorSameDecisions(t *testing.T) {
	const streams, rounds = 4, 18
	doors := []struct {
		name string
		// open returns the door's round: apply fbs in order, then decide
		// reqs in order.
		open func(t *testing.T, srv *alert.Server) func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult
	}{
		{"Server.Decide loop", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			return func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult {
				for _, o := range fbs {
					if err := srv.Observe(o.stream, o.fb); err != nil {
						t.Fatal(err)
					}
				}
				res := make([]alert.BatchResult, len(reqs))
				for i, r := range reqs {
					res[i].Stream = r.Stream
					res[i].Decision, res[i].Estimate = srv.Decide(r.Stream, r.Spec)
				}
				return res
			}
		}},
		{"Server.DecideBatch", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			return func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult {
				for _, o := range fbs {
					if err := srv.Observe(o.stream, o.fb); err != nil {
						t.Fatal(err)
					}
				}
				return srv.DecideBatch(reqs)
			}
		}},
		{"ServerBurst", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			b := srv.NewBurst()
			return func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult {
				b.Reset()
				for _, o := range fbs {
					if err := b.Observe(o.stream, o.fb); err != nil {
						t.Fatal(err)
					}
				}
				res := make([]alert.BatchResult, len(reqs))
				at := make([]int, len(reqs))
				for i, r := range reqs {
					at[i] = b.Decide(r.Stream, r.Spec)
				}
				b.Run()
				for i := range res {
					res[i] = b.Result(at[i])
				}
				return res
			}
		}},
		{"HTTP decide-batch", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			front := New(srv, Config{})
			return func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult {
				for _, o := range fbs {
					body := ObserveRequest{Stream: o.stream, Feedback: FromFeedback(o.fb)}
					if code := doJSON(t, front, http.MethodPost, "/v1/observe", body, nil); code != http.StatusAccepted {
						t.Fatalf("observe status %d", code)
					}
				}
				var in BatchRequest
				for _, r := range reqs {
					in.Requests = append(in.Requests, DecideRequest{Stream: r.Stream, Spec: FromSpec(r.Spec)})
				}
				var out BatchResponse
				if code := doJSON(t, front, http.MethodPost, "/v1/decide-batch", in, &out); code != http.StatusOK {
					t.Fatalf("decide-batch status %d", code)
				}
				res := make([]alert.BatchResult, len(out.Results))
				for i, r := range out.Results {
					res[i] = alert.BatchResult{Stream: r.Stream, Decision: r.Decision.ToDecision(), Estimate: r.Estimate.ToEstimate()}
				}
				return res
			}
		}},
		{"binwire pipelined burst", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			return binwireRound(t, dialRaw(t, startRawBinary(t, New(srv, Config{})).Addr()))
		}},
		{"binwire burst over the HTTP upgrade", func(t *testing.T, srv *alert.Server) func([]observed, []alert.BatchRequest) []alert.BatchResult {
			return binwireRound(t, dialBinary(t, startBinary(t, New(srv, Config{})).Addr()))
		}},
	}

	var want [streams]string
	for di, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			round := door.open(t, testAlertServer(t, 2))
			var got [streams]strings.Builder
			var fbs []observed
			for r := 0; r < rounds; r++ {
				var reqs []alert.BatchRequest
				for k := 0; k < streams; k++ {
					s := (k + r) % streams
					reqs = append(reqs, alert.BatchRequest{Stream: s, Spec: alert.Spec{
						Objective:    alert.MinimizeEnergy,
						Deadline:     0.12 + 0.02*float64((s+r)%5),
						AccuracyGoal: 0.88 + 0.01*float64(r%4),
					}})
				}
				if r%3 == 2 { // a stream twice in one round: served in request order
					reqs = append(reqs, reqs[0])
				}
				res := round(fbs, reqs)
				if len(res) != len(reqs) {
					t.Fatalf("round %d: %d results for %d requests", r, len(res), len(reqs))
				}
				fbs = fbs[:0]
				for i, x := range res {
					if x.Stream != reqs[i].Stream {
						t.Fatalf("round %d result %d: stream %d, want %d", r, i, x.Stream, reqs[i].Stream)
					}
					d := x.Decision
					fmt.Fprintf(&got[x.Stream], "%d,%d,%.17g,%.17g;", d.Model, d.Cap, d.PlannedStop, d.Overhead)
					fbs = append(fbs, observed{x.Stream, alert.Feedback{
						Decision:       d,
						Latency:        (0.8 + 0.15*float64((x.Stream+r+i)%5)) * x.Estimate.LatMean,
						CompletedStage: -1,
						IdlePowerW:     5,
					}})
				}
				// A measurement without signal is dropped by every door.
				fbs = append(fbs, observed{r % streams, alert.Feedback{Decision: res[0].Decision}})
			}
			for s := range got {
				switch {
				case di == 0:
					want[s] = got[s].String()
				case got[s].String() != want[s]:
					t.Errorf("stream %d: decisions diverge from the %s door\n got %s\nwant %s", s, doors[0].name, got[s].String(), want[s])
				}
			}
		})
	}
}

// binwireRound is the doors' round on a binwire connection: every observe
// and decide of the round pipelined in one write, the replies matched back
// to the requests by id.
func binwireRound(t *testing.T, rc *rawConn) func([]observed, []alert.BatchRequest) []alert.BatchResult {
	return func(fbs []observed, reqs []alert.BatchRequest) []alert.BatchResult {
		// One write, nothing awaited in between: the connection's
		// arrival order is the only thing ordering the decides
		// behind the observes and each other.
		var frames []byte
		first := rc.id + 1
		for _, o := range fbs {
			rc.id++
			frames = binwire.AppendObserve(frames, rc.id, o.stream, o.fb)
		}
		firstDecide := rc.id + 1
		for _, r := range reqs {
			rc.id++
			frames = binwire.AppendDecide(frames, rc.id, r.Stream, r.Spec)
		}
		rc.send(frames)
		res := make([]alert.BatchResult, len(reqs))
		seen := make(map[uint64]bool)
		for n := first; n <= rc.id; n++ {
			f := rc.next()
			if f.ID < first || f.ID > rc.id || seen[f.ID] {
				t.Fatalf("reply id %d outside the burst or repeated", f.ID)
			}
			seen[f.ID] = true
			want := binwire.MsgObserveResp
			if f.ID >= firstDecide {
				want = binwire.MsgDecideResp
			}
			if f.Type != want {
				t.Fatalf("reply %d: type %d, want %d", f.ID, f.Type, want)
			}
			if want == binwire.MsgObserveResp {
				continue
			}
			i := f.ID - firstDecide
			d, e, _, err := binwire.DecodeDecideResp(f.Body)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = alert.BatchResult{Stream: reqs[i].Stream, Decision: d, Estimate: e}
		}
		return res
	}
}
