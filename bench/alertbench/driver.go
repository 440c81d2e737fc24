package main

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

const (
	// traceTicks and scriptInputs bound the generator's memory: the churn
	// trace and each driver's pre-generated inputs wrap. Both are several
	// churn periods (90 inputs) long.
	traceTicks   = 4096
	scriptInputs = 4096
)

// script is one driver's deterministic input sequence: loop i's stream,
// spec and input are pure functions of (seed, driver, i), so the timed run,
// the oracle and every depth probe can replay the same loops.
type script struct {
	w       workloadDef
	tr      *scenario.Trace
	base    alert.Spec
	prof    *dnn.ProfileTable
	driver  int
	streams []int
	// sizes are the pre-generated input size factors. One workload.Stream
	// per driver, drained once in set-up and wrapped: NewSentenceStream
	// materializes all n inputs, so an unbounded stream cannot be lazy.
	sizes   []float64
	envSeed int64
}

func newScript(w workloadDef, tr *scenario.Trace, base alert.Spec, prof *dnn.ProfileTable, driver int, seed int64) *script {
	per := w.Streams / w.Drivers
	sc := &script{w: w, tr: tr, base: base, prof: prof, driver: driver,
		streams: make([]int, per), sizes: make([]float64, 0, scriptInputs)}
	for i := range sc.streams {
		sc.streams[i] = driver*per + i
	}
	// Same per-driver seed derivation as cmd/alertload's per-stream one.
	dseed := seed + int64(driver)*7919
	in := workload.NewStream(w.Task, scriptInputs, dseed*3+1)
	for len(sc.sizes) < scriptInputs {
		x, _ := in.Next()
		sc.sizes = append(sc.sizes, x.SizeFactor)
	}
	sc.envSeed = dseed*3 + 2
	return sc
}

func (sc *script) stream(i int) int      { return sc.streams[i%len(sc.streams)] }
func (sc *script) spec(i int) alert.Spec { return sc.tr.SpecFor(i, sc.base) }
func (sc *script) newEnv() *sim.Env      { return sim.NewEnv(sc.prof, sc.tr.Source(), sc.envSeed) }
func (sc *script) loopID(i int) uint64   { return uint64(sc.driver)<<32 | uint64(i) }
func (sc *script) input(i int) workload.Input {
	return workload.Input{ID: i, SizeFactor: sc.sizes[i%len(sc.sizes)]}
}

// step runs loop i's simulated inference under decision d and returns the
// feedback the loop reports, plus the raw outcome for the sim_* metrics.
func (sc *script) step(env *sim.Env, i int, spec alert.Spec, d alert.Decision) (alert.Feedback, sim.Outcome) {
	out := env.Step(sim.Decision{Model: d.Model, Cap: d.Cap, PlannedStop: d.PlannedStop, Overhead: d.Overhead},
		sc.input(i), spec.Deadline, spec.Deadline)
	return alert.Feedback{Decision: d, Latency: out.Latency, CompletedStage: out.Stage, IdlePowerW: out.IdlePower}, out
}

// backend is what a driver decides and observes against: the wire client
// in the measured run, the in-process server for the no-wire ceiling.
type backend interface {
	Decide(stream int, spec alert.Spec) (alert.Decision, error)
	Observe(stream int, fb alert.Feedback) error
	DecideBatch(reqs []alert.BatchRequest) ([]alert.BatchResult, error)
}

type clientBackend struct{ c *client.Client }

func (b clientBackend) Decide(stream int, spec alert.Spec) (alert.Decision, error) {
	d, _, err := b.c.Decide(context.Background(), stream, spec)
	return d, err
}
func (b clientBackend) Observe(stream int, fb alert.Feedback) error {
	return b.c.Observe(context.Background(), stream, fb)
}
func (b clientBackend) DecideBatch(reqs []alert.BatchRequest) ([]alert.BatchResult, error) {
	return b.c.DecideBatch(context.Background(), reqs)
}

type inprocBackend struct{ srv *alert.Server }

func (b inprocBackend) Decide(stream int, spec alert.Spec) (alert.Decision, error) {
	d, _ := b.srv.Decide(stream, spec)
	return d, nil
}
func (b inprocBackend) Observe(stream int, fb alert.Feedback) error {
	b.srv.Observe(stream, fb)
	return nil
}
func (b inprocBackend) DecideBatch(reqs []alert.BatchRequest) ([]alert.BatchResult, error) {
	return b.srv.DecideBatch(reqs), nil
}

// runClock lays the timed interval out as a warm-up, n equal windows and a
// discarded tail. Drivers stamp each sample with the window its decide
// completed in; every timing metric is the median of its per-window values.
type runClock struct {
	t0   time.Time
	warm time.Duration
	win  time.Duration
	n    int
	// traced makes the odd windows record spans, so one run yields traced
	// and untraced throughput side by side.
	traced bool
	stop   atomic.Bool
}

// newRunClock drops the first 10 % and the last 5 % of the interval. An
// untraced run has 5 windows; a traced one 6, alternating untraced/traced.
func newRunClock(total time.Duration, traced bool) *runClock {
	n := 5
	if traced {
		n = 6
	}
	warm := total / 10
	return &runClock{warm: warm, win: (total - warm - total/20) / time.Duration(n), n: n, traced: traced}
}

// window maps an offset from t0 to its window index: -1 during warm-up,
// n once past the last window.
func (c *runClock) window(since time.Duration) int {
	if since < c.warm {
		return -1
	}
	if w := int((since - c.warm) / c.win); w < c.n {
		return w
	}
	return c.n
}

func (c *runClock) tracing(w int) bool { return c.traced && w >= 0 && w < c.n && w%2 == 1 }

const maxWindows = 6

// driver is one goroutine owning a fixed slice of streams, visited
// round-robin with one sim.Env for all of them. Single-goroutine order
// makes its decision sequence deterministic. Everything it appends to is
// allocated in set-up.
type driver struct {
	sc   *script
	env  *sim.Env
	next int // index of the next loop

	// lat holds one decide (or DecideBatch) latency per call in ns, obs
	// one observe latency per loop (traced runs only). bounds[w] is the
	// index of the first lat sample in window w; samples before bounds[0]
	// are warm-up.
	lat    []uint32
	obs    []uint32
	bounds [maxWindows + 1]int
	curWin int

	failed   int
	firstErr error

	// rec is the first cap(rec) decisions as they came over the wire, for
	// the oracle (nil on drivers the oracle does not replay).
	rec []alert.Decision
	// Simulated outcome of the first simLoops loops.
	simLoops  int
	simN      int
	simEnergy float64
	simViol   int

	spans spanBuf
	reqs  []alert.BatchRequest
}

func newDriver(sc *script, latCap, spanCap, recLoops, simLoops int) *driver {
	d := &driver{sc: sc, env: sc.newEnv(), lat: make([]uint32, 0, latCap), simLoops: simLoops, curWin: -1}
	if recLoops > 0 {
		d.rec = make([]alert.Decision, 0, recLoops)
	}
	if spanCap > 0 {
		d.obs = make([]uint32, 0, latCap)
		d.spans = newSpanBuf(uint64(sc.driver+1)<<40, spanCap)
	}
	if sc.w.Batch > 0 {
		d.reqs = make([]alert.BatchRequest, sc.w.Batch)
	}
	return d
}

func (d *driver) fail(n int, err error) {
	d.failed += n
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// enterWindow records the sample index at which each window begins.
func (d *driver) enterWindow(w int) {
	for d.curWin < w {
		d.curWin++
		if d.curWin <= maxWindows {
			d.bounds[d.curWin] = len(d.lat)
		}
	}
}

// settle folds loop i's decision and simulated outcome into the oracle
// record and the sim_* sums.
func (d *driver) settle(i int, spec alert.Spec, dec alert.Decision, out sim.Outcome) {
	if len(d.rec) < cap(d.rec) {
		d.rec = append(d.rec, dec)
	}
	if i < d.simLoops {
		d.simN++
		d.simEnergy += out.Energy
		if out.Latency > spec.Deadline || out.Quality < spec.AccuracyGoal {
			d.simViol++
		}
	}
}

// iterate runs one closed-loop iteration — one decide→observe loop, or for
// a batch workload one DecideBatch followed by its Observes — and returns
// the loops it completed.
func (d *driver) iterate(b backend, c *runClock) int {
	if d.sc.w.Batch > 0 {
		return d.iterateBatch(b, c)
	}
	i := d.next
	d.next++
	stream, spec := d.sc.stream(i), d.sc.spec(i)
	t0 := time.Since(c.t0)
	dec, err := b.Decide(stream, spec)
	t1 := time.Since(c.t0)
	w := c.window(t1)
	d.enterWindow(w)
	d.lat = append(d.lat, uint32(t1-t0))
	if err != nil {
		d.fail(1, err)
		return 0
	}
	fb, out := d.sc.step(d.env, i, spec, dec)
	d.settle(i, spec, dec, out)
	if !c.tracing(w) {
		if err := b.Observe(stream, fb); err != nil {
			d.fail(1, err)
			return 0
		}
		return 1
	}
	t2 := time.Since(c.t0)
	err = b.Observe(stream, fb)
	t3 := time.Since(c.t0)
	d.obs = append(d.obs, uint32(t3-t2))
	loop := d.spans.add("loop", 0, d.sc.loopID(i), t0, t3)
	d.spans.add("client.Decide", loop, d.sc.loopID(i), t0, t1)
	d.spans.add("client.Observe", loop, d.sc.loopID(i), t2, t3)
	if err != nil {
		d.fail(1, err)
		return 0
	}
	return 1
}

func (d *driver) iterateBatch(b backend, c *runClock) int {
	n := len(d.reqs)
	first := d.next
	d.next += n
	for k := range d.reqs {
		d.reqs[k] = alert.BatchRequest{Stream: d.sc.stream(first + k), Spec: d.sc.spec(first + k)}
	}
	t0 := time.Since(c.t0)
	res, err := b.DecideBatch(d.reqs)
	t1 := time.Since(c.t0)
	w := c.window(t1)
	d.enterWindow(w)
	d.lat = append(d.lat, uint32(t1-t0))
	if err != nil {
		d.fail(n, err)
		return 0
	}
	tracing := c.tracing(w)
	var loop uint64
	if tracing {
		// The batch call is the loop's parent; its end is patched below.
		loop = d.spans.add("loop", 0, d.sc.loopID(first), t0, t1)
		d.spans.add("client.DecideBatch", loop, d.sc.loopID(first), t0, t1)
	}
	done := 0
	for k, r := range res {
		i := first + k
		fb, out := d.sc.step(d.env, i, d.reqs[k].Spec, r.Decision)
		d.settle(i, d.reqs[k].Spec, r.Decision, out)
		t2 := time.Since(c.t0)
		if err := b.Observe(r.Stream, fb); err != nil {
			d.fail(1, err)
			continue
		}
		done++
		if tracing {
			t3 := time.Since(c.t0)
			d.obs = append(d.obs, uint32(t3-t2))
			d.spans.add("client.Observe", loop, d.sc.loopID(first), t2, t3)
			d.spans.extend(loop, t3)
		}
	}
	return done
}

// warm runs one iteration per owned stream (per batch of them), creating
// every session.
func (d *driver) warm(b backend, c *runClock) {
	for d.next < len(d.sc.streams) {
		d.iterate(b, c)
	}
}

// run loops until the clock stops and returns the loops completed. It
// starts from empty sample buffers: what the warm loop or an earlier run
// took is discarded.
func (d *driver) run(b backend, c *runClock) int {
	d.lat, d.obs, d.curWin = d.lat[:0], d.obs[:0], -1
	loops := 0
	for !c.stop.Load() {
		loops += d.iterate(b, c)
	}
	d.enterWindow(maxWindows)
	return loops
}
