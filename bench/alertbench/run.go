package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/scenario"
)

// sizing is what differs between a real run and the smoke test.
type sizing struct {
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// oracleLoops is how many of a driver's first loops the oracle
	// replays; simLoops how many feed the sim_* metrics; probeLoops how
	// many the depth probes replay.
	oracleLoops, simLoops, probeLoops int
	// streams, when positive, overrides every workload's stream count
	// (the drivers shrink to fit).
	streams int
}

// The sample buffers have one size whatever the run length. They share the
// heap with the program under test, and the Go collector paces itself by
// live heap: buffers sized by -seconds made a 20 s run 6 % faster than a
// 12 s one on loop-json-batch. latSamples holds 60 s at over twice the
// prototype's rate (32 MB); spans past traceSpans (56 MB) are dropped and
// counted.
const (
	latSamples = 8 << 20
	traceSpans = 1 << 20
)

var fullSizing = sizing{setups: 3, oracleLoops: 2000, simLoops: 1000, probeLoops: 2000}

// rig is a set-up workload: generator state, the server stack, and every
// stream's session created by one warm loop.
type rig struct {
	w       workloadDef
	seed    int64
	sz      sizing
	base    alert.Spec
	prof    *dnn.ProfileTable
	tr      *scenario.Trace
	drivers []*driver
	st      *stack

	setupS        float64
	heapPerStream float64
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sync.Pool clearing released
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp builds everything the timed run touches. All generator state is
// allocated first, before the heap baseline. setup_s is the program's own
// set-up — server stack up, client connected, every stream's session
// created by one warm loop — not the generator's, so that work a later
// change moves into NewServer or session creation shows undiluted.
func setUp(w workloadDef, seed int64, traced bool, sz sizing) (*rig, error) {
	if sz.streams > 0 {
		w.Streams = sz.streams
		if w.Drivers > w.Streams {
			w.Drivers = w.Streams
		}
		if w.Batch > w.Streams/w.Drivers {
			w.Batch = w.Streams / w.Drivers
		}
	}
	r := &rig{w: w, seed: seed, sz: sz}
	plat, models := w.Platform(), w.models()
	r.base = baseSpec(plat, w.Task, models)
	var err error
	if r.prof, err = dnn.Profile(plat, models); err != nil {
		return nil, err
	}
	churn, err := scenario.ByName("churn")
	if err != nil {
		return nil, err
	}
	if r.tr, err = scenario.Compile(churn, plat, traceTicks, r.base.Deadline, seed); err != nil {
		return nil, err
	}
	latCap := latSamples / w.Drivers
	spanCap := 0
	if traced {
		spanCap = traceSpans / w.Drivers
	}
	for d := 0; d < w.Drivers; d++ {
		// The oracle replays the first driver and one from the middle of
		// the pack; only they record their decisions.
		rec := 0
		if d == 0 || d == 37%w.Drivers {
			rec = sz.oracleLoops
		}
		r.drivers = append(r.drivers, newDriver(newScript(w, r.tr, r.base, r.prof, d, seed), latCap, spanCap, rec, sz.simLoops))
	}

	heap0 := heapAlloc()
	t1 := time.Now()
	if r.st, err = newStack(w); err != nil {
		return nil, err
	}
	b := r.st.backendFor(w)
	warmClock := &runClock{t0: t1, warm: time.Hour}
	var wg sync.WaitGroup
	for _, d := range r.drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.warm(b, warmClock)
		}(d)
	}
	wg.Wait()
	r.setupS = time.Since(t1).Seconds()
	r.heapPerStream = (float64(heapAlloc()) - float64(heap0)) / float64(w.Streams)
	if got := r.st.srv.Streams(); got != w.Streams {
		r.close()
		return nil, fmt.Errorf("warm loop created %d sessions, want %d (%v)", got, w.Streams, r.firstErr())
	}
	return r, nil
}

func (r *rig) close() { r.st.close() }

func (r *rig) firstErr() error {
	for _, d := range r.drivers {
		if d.firstErr != nil {
			return d.firstErr
		}
	}
	return nil
}

// issued sums the loops every driver has started since set-up.
func (r *rig) issued() (loops, failed int) {
	for _, d := range r.drivers {
		loops += d.next
		failed += d.failed
	}
	return loops, failed
}

// counters is one reading of every counter family the program exports.
type counters struct {
	serve metrics.ServeSnapshot
	net   metrics.NetSnapshot
	bin   metrics.BinSnapshot
	over  metrics.OverloadSnapshot
	mem   runtime.MemStats
	ru    syscall.Rusage
}

func (r *rig) readCounters(withMem bool) counters {
	c := counters{serve: r.st.srv.Stats(), net: r.st.front.NetStats(), bin: r.st.bin.BinStats(), over: r.st.front.OverloadStats()}
	if withMem {
		runtime.ReadMemStats(&c.mem) // stops the world: traced runs only
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru)
	return c
}

func tvMicros(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }

// timed is one measured interval's raw material.
type timed struct {
	clock  *runClock
	loops  int // completed over the whole interval
	before counters
	after  counters
	// cpu[k] is the process's user+sys CPU µs at the start of window k
	// (k = n: the end of the last window).
	cpu []float64
}

// runTimed drives every driver against b for total, sampling CPU at the
// window boundaries.
func (r *rig) runTimed(b backend, total time.Duration, traced bool) *timed {
	c := newRunClock(total, traced)
	t := &timed{clock: c, before: r.readCounters(traced)}
	counts := make([]int, len(r.drivers))
	var wg sync.WaitGroup
	c.t0 = time.Now()
	for k, d := range r.drivers {
		wg.Add(1)
		go func(k int, d *driver) {
			defer wg.Done()
			counts[k] = d.run(b, c)
		}(k, d)
	}
	for k := 0; k <= c.n; k++ {
		time.Sleep(time.Until(c.t0.Add(c.warm + time.Duration(k)*c.win)))
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		t.cpu = append(t.cpu, tvMicros(ru.Utime)+tvMicros(ru.Stime))
	}
	time.Sleep(time.Until(c.t0.Add(total)))
	c.stop.Store(true)
	wg.Wait()
	t.after = r.readCounters(traced)
	for _, n := range counts {
		t.loops += n
	}
	return t
}

// window returns window w's loop count and decide latencies in µs, merged
// across drivers.
func (r *rig) window(w int) (loops float64, latUS []float64) {
	per := 1
	if r.w.Batch > 0 {
		per = r.w.Batch
	}
	for _, d := range r.drivers {
		for _, ns := range d.lat[d.bounds[w]:d.bounds[w+1]] {
			latUS = append(latUS, float64(ns)/1e3)
		}
	}
	return float64(len(latUS) * per), latUS
}

// conserved checks that the server counted exactly the decides and
// observes the drivers issued since set-up. Observes are applied
// asynchronously, so it waits for the shard queues to drain.
func (r *rig) conserved() error {
	want, failed := r.issued()
	if failed > 0 {
		return fmt.Errorf("%d failed loops (first: %v)", failed, r.firstErr())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := r.st.srv.Stats()
		if s.Decisions == int64(want) && s.Observes == int64(want) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conservation: drivers issued %d loops, server counted %d decisions and %d observes",
				want, s.Decisions, s.Observes)
		}
		time.Sleep(time.Millisecond)
	}
}
