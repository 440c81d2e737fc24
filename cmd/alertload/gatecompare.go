package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/scenario"
)

// Gate-compare mode (-gate-compare): the head-to-head overload rehearsal
// for the adaptive admission controller. The same trace-shaped request
// schedule is driven at -overload × the static gate's capacity through two
// identical in-process servers — one behind the static gate, one behind
// the adaptive gate with SLO shedding — and both runs report wall-clock
// SLO attainment (sheds count as misses). Service time is pinned with
// Config.ServiceDelay so "capacity" is a known quantity instead of an
// artifact of host speed.
//
// Two invariants are machine-checked on every run, per gate:
//
//   - Zero dropped accepted requests: every request either returns a real
//     decision or a structured 429; any other failure aborts the run.
//   - Admission never changes computation: each stream's served requests
//     are replayed in order against a fresh in-process alert.Server and
//     the decision sequences must match byte for byte.
//
// The exit status is the verdict: non-zero if the adaptive gate's SLO
// attainment falls below the static gate's.

// gateTrialConfig parameterizes one trial (and is reused by the
// BenchmarkGateCompare harness).
type gateTrialConfig struct {
	trace        *scenario.Trace
	base         alert.Spec
	plat         *alert.Platform
	models       []*dnn.Model
	streams      int
	inputs       int
	shards       int
	overload     float64
	gateInflight int
	gateQueue    int
	serviceDelay time.Duration
	wallDeadline time.Duration
}

// gateTrialResult is one gate's side of the comparison.
type gateTrialResult struct {
	issued, served, shed, met int
	// specs[s] is the ordered spec sequence of stream s's *served*
	// requests; tokens[s] the matching decision tokens. Together they are
	// the determinism artifact the oracle replays.
	specs  [][]alert.Spec
	tokens []string
	// gate is the admission gate's final snapshot — for the adaptive run,
	// the limits the controller discovered.
	gate metrics.OverloadSnapshot
}

// slo is deadline attainment with sheds counted as misses: to the caller a
// shed request is a missed deadline.
func (r *gateTrialResult) slo() float64 {
	if r.issued == 0 {
		return 0
	}
	return float64(r.met) / float64(r.issued)
}

// decisionToken formats a decision exactly like driveStream's sequence
// artifact, so "byte-identical" means the same thing in both modes.
func decisionToken(d alert.Decision) string {
	return fmt.Sprintf("%d,%d,%.17g,%.17g;", d.Model, d.Cap, d.PlannedStop, d.Overhead)
}

// trialFeedback derives the observe-loop feedback deterministically from
// the decide response, so the oracle replay reconstructs the identical
// session evolution from the recorded decisions alone.
func trialFeedback(d alert.Decision, latMean float64) alert.Feedback {
	return alert.Feedback{Decision: d, Latency: latMean * 1.05, CompletedStage: -1, IdlePowerW: 4}
}

// runGateTrial drives the schedule through one front end. Each stream is a
// serialized driver aiming at scheduled arrival times (open loop with
// lateness): a request launches at its scheduled instant when the stream's
// previous one has finished, immediately otherwise — so per-stream
// decide → observe order stays strict (the determinism contract) while the
// fleet of streams supplies the overload.
func runGateTrial(cfg gateTrialConfig, adaptive bool) (*gateTrialResult, error) {
	srv, err := alert.NewServer(cfg.plat, cfg.models, alert.ServerOptions{Shards: cfg.shards})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	front := netserve.New(srv, netserve.Config{
		MaxInflight:  cfg.gateInflight,
		MaxQueue:     cfg.gateQueue,
		Adaptive:     adaptive,
		SLOShed:      adaptive,
		ServiceDelay: cfg.serviceDelay,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: front}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	base := "http://" + ln.Addr().String()

	// Decides run with retries off so every shed surfaces as the 429 it
	// is; observes retry through overload because the feedback loop must
	// not lose samples (they are idempotent per served decision here:
	// each is sent once and retried only until accepted).
	decide, err := client.New(base, client.Options{})
	if err != nil {
		return nil, err
	}
	defer decide.Close()
	observe, err := client.New(base, client.Options{MaxRetries: 100})
	if err != nil {
		return nil, err
	}
	defer observe.Close()

	// Offered load: -overload × the static gate's service capacity,
	// shaped by the trace's inter-arrival gaps (uniform when the trace is
	// closed-loop), split evenly across the streams.
	capacity := float64(cfg.gateInflight) / cfg.serviceDelay.Seconds()
	perStreamGap := float64(cfg.streams) / (cfg.overload * capacity)
	meanGap := 0.0
	for j := 0; j < cfg.inputs; j++ {
		meanGap += cfg.trace.At(j).Gap
	}
	meanGap /= float64(cfg.inputs)
	gapScale := 0.0
	if meanGap > 0 {
		gapScale = perStreamGap / meanGap
	}

	res := &gateTrialResult{
		specs:  make([][]alert.Spec, cfg.streams),
		tokens: make([]string, cfg.streams),
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	ctx := context.Background()
	start := time.Now()
	for s := 0; s < cfg.streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var (
				specs             []alert.Spec
				tokens            strings.Builder
				served, shed, met int
			)
			sched := start
			for j := 0; j < cfg.inputs; j++ {
				gap := perStreamGap
				if gapScale > 0 {
					gap = cfg.trace.At(j).Gap * gapScale
				}
				sched = sched.Add(time.Duration(gap * float64(time.Second)))
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}

				// The trace's churn sets this input's spec; its deadline
				// ratio scales the nominal wall deadline, so tight trace
				// deadlines are tight wall deadlines the shedder can
				// recognize as hopeless under load.
				dspec := cfg.trace.SpecFor(j, cfg.base)
				dspec.Deadline = cfg.wallDeadline.Seconds() * (dspec.Deadline / cfg.base.Deadline)

				t0 := time.Now()
				d, est, err := decide.Decide(ctx, s, dspec)
				sojourn := time.Since(t0)
				if err != nil {
					var oe *client.OverloadError
					if errors.As(err, &oe) {
						shed++
						continue
					}
					fail(fmt.Errorf("stream %d input %d: accepted-request path failed: %w", s, j, err))
					return
				}
				if est.LatMean <= 0 {
					fail(fmt.Errorf("stream %d input %d: served request carried an empty decision", s, j))
					return
				}
				served++
				if sojourn.Seconds() <= dspec.Deadline {
					met++
				}
				specs = append(specs, dspec)
				tokens.WriteString(decisionToken(d))
				if err := observe.Observe(ctx, s, trialFeedback(d, est.LatMean)); err != nil {
					fail(fmt.Errorf("stream %d input %d: observe failed: %w", s, j, err))
					return
				}
			}
			mu.Lock()
			res.issued += cfg.inputs
			res.served += served
			res.shed += shed
			res.met += met
			res.specs[s] = specs
			res.tokens[s] = tokens.String()
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if res.served+res.shed != res.issued {
		return nil, fmt.Errorf("request conservation broke: served %d + shed %d != issued %d",
			res.served, res.shed, res.issued)
	}
	res.gate = front.OverloadStats()
	return res, nil
}

// verifyGateDecisions is the oracle: replay every stream's served requests
// in order against a fresh in-process alert.Server and require the
// decision sequences to match byte for byte. Admission decides whether a
// request runs, never what it computes.
func verifyGateDecisions(cfg gateTrialConfig, res *gateTrialResult) error {
	ref, err := alert.NewServer(cfg.plat, cfg.models, alert.ServerOptions{Shards: 1})
	if err != nil {
		return err
	}
	defer ref.Close()
	for s := 0; s < cfg.streams; s++ {
		var tokens strings.Builder
		for _, spec := range res.specs[s] {
			d, est := ref.Decide(s, spec)
			tokens.WriteString(decisionToken(d))
			ref.Observe(s, trialFeedback(d, est.LatMean))
		}
		if tokens.String() != res.tokens[s] {
			return fmt.Errorf("stream %d: served decisions diverged from the in-process replay\n gate: %s\n ref:  %s",
				s, res.tokens[s], tokens.String())
		}
	}
	return nil
}

// gateTrialConfigFrom resolves the flag set into a trial config, compiling
// (or replaying) the trace once so both gates see the identical schedule.
func gateTrialConfigFrom(cfg loadConfig) (gateTrialConfig, error) {
	var tc gateTrialConfig
	plat, err := alert.PlatformByName(cfg.platform)
	if err != nil {
		return tc, err
	}
	models := alert.ImageCandidates()
	if strings.HasPrefix(strings.ToLower(cfg.task), "sent") {
		models = alert.SentenceCandidates()
	}
	base, err := baseSpec(cfg, plat, models)
	if err != nil {
		return tc, err
	}
	var tr *scenario.Trace
	if cfg.replayPath != "" {
		if tr, err = scenario.ReadFile(cfg.replayPath); err != nil {
			return tc, err
		}
	} else {
		sspec, err := scenario.ByName(cfg.scenarioName)
		if err != nil {
			return tc, err
		}
		if tr, err = scenario.Compile(sspec, plat, cfg.inputs, base.Deadline, cfg.seed); err != nil {
			return tc, err
		}
	}
	return gateTrialConfig{
		trace:        tr,
		base:         base,
		plat:         plat,
		models:       models,
		streams:      cfg.streams,
		inputs:       cfg.inputs,
		shards:       cfg.shards,
		overload:     cfg.overload,
		gateInflight: cfg.gateInflight,
		gateQueue:    cfg.gateQueue,
		serviceDelay: cfg.serviceDelay,
		wallDeadline: cfg.wallDeadline,
	}, nil
}

// runGateCompare is the -gate-compare entry point: one trial per gate,
// both oracle-checked, and the SLO verdict as the exit status.
func runGateCompare(cfg loadConfig, stdout io.Writer) error {
	tc, err := gateTrialConfigFrom(cfg)
	if err != nil {
		return err
	}
	capacity := float64(tc.gateInflight) / tc.serviceDelay.Seconds()
	fmt.Fprintf(stdout, "gate-compare: scenario=%s streams=%d inputs/stream=%d seed=%d\n",
		tc.trace.Scenario, tc.streams, tc.inputs, cfg.seed)
	fmt.Fprintf(stdout, "gate-compare: offered %.1fx capacity (%.0f rps), service %s, gate %d/%d, wall deadline %s\n",
		tc.overload, tc.overload*capacity, tc.serviceDelay, tc.gateInflight, tc.gateQueue, tc.wallDeadline)

	report := func(name string, r *gateTrialResult) {
		fmt.Fprintf(stdout, "%-9s slo %5.1f%% | served %d/%d (met %d) shed %d (hopeless %d, overload %d, deadline %d) | final limits %d/%d (+%d/-%d moves) | svc %s qd-p95 %s\n",
			name+":", 100*r.slo(), r.served, r.issued, r.met, r.shed,
			r.gate.ShedHopeless, r.gate.ShedOverload, r.gate.ShedDeadline,
			r.gate.InflightLimit, r.gate.QueueLimit, r.gate.LimitIncreases, r.gate.LimitDecreases,
			r.gate.ServiceEWMA.Round(time.Microsecond*10), r.gate.QueueDelayP95)
	}

	static, err := runGateTrial(tc, false)
	if err != nil {
		return fmt.Errorf("static gate trial: %w", err)
	}
	if err := verifyGateDecisions(tc, static); err != nil {
		return fmt.Errorf("static gate trial: %w", err)
	}
	report("static", static)

	adaptive, err := runGateTrial(tc, true)
	if err != nil {
		return fmt.Errorf("adaptive gate trial: %w", err)
	}
	if err := verifyGateDecisions(tc, adaptive); err != nil {
		return fmt.Errorf("adaptive gate trial: %w", err)
	}
	report("adaptive", adaptive)

	gain := 100 * (adaptive.slo() - static.slo())
	fmt.Fprintf(stdout, "decision determinism: both gates byte-identical to the in-process replay\n")
	fmt.Fprintf(stdout, "adaptive SLO gain: %+.1f pp\n", gain)
	if adaptive.slo() < static.slo() {
		return fmt.Errorf("adaptive gate lost: slo %.1f%% < static %.1f%%", 100*adaptive.slo(), 100*static.slo())
	}
	return nil
}
