package main

import (
	"errors"
	"time"

	"pbox/internal/cases"
	"pbox/internal/core"
	"pbox/internal/isolation"
	"pbox/internal/stats"
)

// Case c3's activity names: the reader victim and the fifth, noisy writer.
const (
	ticketsVictim = "reader-1"
	ticketsNoisy  = "writer-t5"
)

func caseC3() cases.Case {
	c, ok := cases.ByID("c3")
	if !ok {
		panic("perfbench: case c3 missing from the catalog")
	}
	return c
}

// newTicketsEnv returns a c3 environment with interference on and latency
// recorders sized for up to 8000 requests a second, so they do not grow
// while the window runs.
func newTicketsEnv(ctrl isolation.Controller, window time.Duration) *cases.Env {
	n := int(window.Seconds()*8000) + 64
	return &cases.Env{Ctrl: ctrl, Interference: true, Duration: window,
		Victim: stats.NewRecorder(n), Noisy: stats.NewRecorder(n)}
}

// ticketsPhase runs case c3 for window under a pBox controller over the
// pboxd-wired manager. cases.Run is not used because it builds a manager
// without the observer chain. The clients' inputs are fixed by the case's
// per-client seeds, so the workload seed does not enter.
func (w *run) ticketsPhase(window time.Duration, tr *tracer) *result {
	r := newResult()
	env := newTicketsEnv(nil, window)
	heap0 := heapAfterGC()
	t0 := time.Now()
	sys, err := buildSystem(w.dirs.next(), tr)
	if err != nil {
		r.attempted++
		r.fail("setup: %v", err)
		return r
	}
	env.Ctrl = isolation.NewPBox(sys.mgr, core.DefaultRule())
	if tr != nil {
		env.Ctrl = &timedController{Controller: env.Ctrl, t: tr, victim: ticketsVictim, noisy: ticketsNoisy}
	}
	r.vals["setup_s"] = time.Since(t0).Seconds()

	p0 := takeProbe(sys, tr)
	caseC3().Scenario(env)
	p1 := takeProbe(sys, tr)
	r.setHeap(sys, heap0)
	victim := env.Victim.Snapshot()
	r.setPcts("latency", victim, "us", 50)
	r.setPcts("loadgen.latency", victim, "us", 95, 99)
	noisy := env.Noisy.Count()
	r.setRates(p0, p1, p1.applied-p0.applied)
	r.vals["cases.noisy_ops_per_s"] = float64(noisy) / window.Seconds()
	r.counts["cases.noisy_ops_per_s"] = noisy

	actions := sys.mgr.TotalActions()
	if actions < 1 {
		r.fail("pBox took no action against the noisy writer")
	}
	if e := sys.wsrv.Stats().Errors; e != 0 {
		r.fail("wire errors: %d", e)
	}
	if tr != nil {
		r.setLayers(sys, p0, p1)
		if s := tr.noisySlept.Load(); s != nil {
			r.vals["core.penalty_sleep_share"] = float64(s.Load()) / float64(p1.at.Sub(p0.at))
		}
	}
	r.finish(sys, sys.close())
	if r.vals["flightrec.incidents"] < 1 {
		r.fail("flight recorder wrote no incident bundle (%d actions)", actions)
	}
	r.attempted += int64(len(victim)+noisy) + 3 // requests and the three checks
	return r
}

// vanillaTickets runs the same scenario under the vanilla controller: the
// reference the traced run divides pBox's victim tail by.
func vanillaTickets(window time.Duration) ([]time.Duration, error) {
	env := newTicketsEnv(isolation.NewNull(), window)
	caseC3().Scenario(env)
	lat := env.Victim.Snapshot()
	if len(lat) == 0 {
		return nil, errors.New("vanilla tickets: no victim request completed")
	}
	return lat, nil
}
