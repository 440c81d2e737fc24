package main

import (
	"fmt"
	"math"
	"time"

	"github.com/alert-project/alert"
)

// sameDecision compares what came over the wire with the reference
// bit-for-bit (CapW is derived from Cap and does not cross the wire check).
func sameDecision(a, b alert.Decision) bool {
	return a.Model == b.Model && a.Cap == b.Cap &&
		math.Float64bits(a.PlannedStop) == math.Float64bits(b.PlannedStop) &&
		math.Float64bits(a.Overhead) == math.Float64bits(b.Overhead)
}

// oracleReport is the outcome of the output check.
type oracleReport struct {
	checked    int
	mismatches int
	first      string
	// simUSPerLoop is the generator's own cost per loop (spec lookup,
	// env.Step, feedback assembly), timed by a pass that runs it alone.
	simUSPerLoop float64
}

// runOracle replays the recorded drivers' first loops against solo
// in-process sessions scored by the naive reference scorer, feeding them
// the same specs and the same simulated feedback, and compares every
// decision with the one the wire returned. Serial replay is equivalent to
// the batched order because a batch's streams are distinct and a session
// only sees its own stream's traffic.
func (r *rig) runOracle() (oracleReport, error) {
	var rep oracleReport
	ref, err := alert.NewServer(r.w.Platform(), r.w.models(), alert.ServerOptions{
		Shards:  1,
		Options: alert.Options{ReferenceScorer: true},
	})
	if err != nil {
		return rep, err
	}
	defer ref.Close()
	var simTime time.Duration
	for _, d := range r.drivers {
		if d.rec == nil {
			continue
		}
		if len(d.rec) < cap(d.rec) {
			return rep, fmt.Errorf("oracle: driver %d completed %d loops, need %d", d.sc.driver, len(d.rec), cap(d.rec))
		}
		env := d.sc.newEnv()
		for i, got := range d.rec {
			stream, spec := d.sc.stream(i), d.sc.spec(i)
			want, _ := ref.Decide(stream, spec)
			rep.checked++
			if !sameDecision(got, want) {
				rep.mismatches++
				if rep.first == "" {
					rep.first = fmt.Sprintf("driver %d loop %d stream %d: wire %+v, reference %+v", d.sc.driver, i, stream, got, want)
				}
			}
			fb, _ := d.sc.step(env, i, spec, want)
			ref.Observe(stream, fb)
		}
		env = d.sc.newEnv()
		t := time.Now()
		for i, got := range d.rec {
			d.sc.step(env, i, d.sc.spec(i), got)
		}
		simTime += time.Since(t)
	}
	if rep.checked > 0 {
		rep.simUSPerLoop = micros(simTime) / float64(rep.checked)
	}
	return rep, nil
}
