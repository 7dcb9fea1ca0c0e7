package main

import (
	"fmt"
	"maps"
	"runtime"
	"syscall"
	"time"

	"pbox/internal/core"
	"pbox/internal/stats"
	"pbox/internal/wire"
)

// result holds what one phase (one system built and measured) or a whole
// run measured: figures by metric name, the samples behind them, and the
// operations attempted and failed.
type result struct {
	vals      map[string]float64
	counts    map[string]int // samples behind a percentile or median
	attempted int64
	failed    int64
	failures  []string
	spans     []selfTime
	dropped   int64 // spans past the trace bound

	// Fleet's status reads, pooled over a run's phases: a phase has too
	// few of them for a 90th percentile of its own.
	status, age []time.Duration
}

func newResult() *result {
	return &result{vals: map[string]float64{}, counts: map[string]int{}}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.failed++
}

// setPcts sets name_p<p>_<unit> for each p from the samples.
func (r *result) setPcts(name string, samples []time.Duration, unit string, ps ...float64) {
	sorted := sortedCopy(samples)
	for _, p := range ps {
		k := fmt.Sprintf("%s_p%g_%s", name, p, unit)
		r.vals[k] = float64(stats.Percentile(sorted, p)) / float64(durationOf[unit])
		r.counts[k] = len(sorted)
	}
}

var durationOf = map[string]time.Duration{"us": time.Microsecond, "ms": time.Millisecond}

// probe is a snapshot of every public counter a phase reads, taken at the
// window's edges.
type probe struct {
	at                time.Time
	wire              wire.Stats
	self              core.SelfStats
	applied           int64
	mem               runtime.MemStats
	cpu               time.Duration // process user+system time
	chain, coll, enc  [2]int64      // calls, ns
	readNs, readBytes int64
}

func takeProbe(sys *system, tr *tracer) probe {
	p := probe{wire: sys.wsrv.Stats(), self: sys.mgr.SelfStats(), applied: sys.appliedEvents()}
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if tr != nil {
		snap := func(c *counter) [2]int64 { return [2]int64{c.calls.Load(), c.ns.Load()} }
		p.chain, p.coll, p.enc = snap(&tr.chain), snap(&tr.collector), snap(&tr.encode)
		p.readNs, p.readBytes = tr.readNs.Load(), tr.readBytes.Load()
	}
	p.at = time.Now()
	return p
}

// setLayers fills the per-layer figures every workload shares from the
// counters at the window's edges.
func (r *result) setLayers(sys *system, p0, p1 probe) {
	v := r.vals
	el := float64(p1.at.Sub(p0.at))
	ev := float64(p1.applied - p0.applied)
	if conns := p1.wire.ConnsActive; conns > 0 {
		v["wire.server_busy_share"] = 1 - float64(p1.readNs-p0.readNs)/(float64(conns)*el)
	}
	v["wire.encode_ns_per_event"] = ratio(float64(p1.enc[1]-p0.enc[1]), float64(p1.enc[0]-p0.enc[0]))
	v["wire.bytes_per_event"] = ratio(float64(p1.readBytes-p0.readBytes), float64(p1.wire.Events-p0.wire.Events))
	v["wire.frames"] = float64(p1.wire.Frames - p0.wire.Frames)
	v["wire.shed_events"] = float64(p1.wire.ShedConn + p1.wire.ShedGlobal - p0.wire.ShedConn - p0.wire.ShedGlobal)
	v["wire.errors"] = float64(p1.wire.Errors)

	s0, s1 := p0.self, p1.self
	v["core.events_per_flush"] = ratio(float64(s1.SpoolFlushedEvents-s0.SpoolFlushedEvents), float64(s1.SpoolFlushes-s0.SpoolFlushes))
	v["core.spool_overflows"] = float64(s1.SpoolOverflows - s0.SpoolOverflows)
	v["core.shard_locks_per_event"] = ratio(float64(s1.ShardLockAcquisitions-s0.ShardLockAcquisitions), ev)
	v["core.contention_revocations"] = float64(s1.ContentionRevocations - s0.ContentionRevocations)
	v["core.verdict_p50_us"] = float64(histPct(s1.VerdictLatency, s0.VerdictLatency, 50)) / 1e3
	v["core.verdict_p99_us"] = float64(histPct(s1.VerdictLatency, s0.VerdictLatency, 99)) / 1e3
	v["core.actions"] = float64(sys.mgr.TotalActions())
	v["core.penalty_p50_us"] = float64(stats.Percentile(sortedCopy(sys.mgr.PenaltyLengths()), 50)) / 1e3
	v["core.snapshot_builds"] = float64(s1.SnapshotBuilds - s0.SnapshotBuilds)
	v["core.snapshot_cache_hits"] = float64(s1.SnapshotCacheHits - s0.SnapshotCacheHits)
	v["core.snapshot_build_ms_mean"] = ratio(float64(s1.SnapshotBuildTotal-s0.SnapshotBuildTotal)/1e6, float64(s1.SnapshotBuilds-s0.SnapshotBuilds))
	v["core.hibernated"] = float64(s1.Hibernated)
	v["core.wakes"] = float64(s1.Wakes)

	chainCalls := float64(p1.chain[0] - p0.chain[0])
	chainNs := float64(p1.chain[1] - p0.chain[1])
	collNs := float64(p1.coll[1] - p0.coll[1])
	v["observer.chain_ns_per_event"] = ratio(chainNs, chainCalls)
	v["flightrec.self_ns_per_event"] = ratio(chainNs-collNs, chainCalls)
	v["telemetry.collector_ns_per_event"] = ratio(collNs, float64(p1.coll[0]-p0.coll[0]))

	v["runtime.allocs_per_event"] = ratio(float64(p1.mem.Mallocs-p0.mem.Mallocs), ev)
	v["runtime.gc_pause_ms"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6
	v["runtime.gc_cycles"] = float64(p1.mem.NumGC - p0.mem.NumGC)
}

// setRates records events_per_s and cpu_ns_per_event for the events applied
// between p0 and p1. CPU time is the whole process's, so it also counts the
// feeders or the case's clients; unlike wall time it does not grow when the
// host takes the CPUs away.
func (r *result) setRates(p0, p1 probe, events int64) {
	r.vals["events_per_s"] = float64(events) / p1.at.Sub(p0.at).Seconds()
	r.vals["cpu_ns_per_event"] = ratio(float64(p1.cpu-p0.cpu), float64(events))
}

// setHeap records the heap the system retains per pBox it created: HeapAlloc
// after GC now, minus heap0 taken after GC before the system was built.
func (r *result) setHeap(sys *system, heap0 int64) {
	created := sys.reg.Counter("pbox_created_total", "").Value()
	r.vals["heap_bytes_per_tenant"] = ratio(float64(heapAfterGC()-heap0), float64(created))
}

// finish records the outcome of tearing sys down (closeErr) and the flight
// recorder's output.
func (r *result) finish(sys *system, closeErr error) {
	if closeErr != nil {
		r.fail("shutdown: %v", closeErr)
	}
	ids, err := sys.rec.Incidents()
	if err != nil {
		r.fail("list incidents: %v", err)
	}
	r.vals["flightrec.incidents"] = float64(len(ids))
	r.vals["flightrec.dropped"] = float64(sys.rec.Dropped())
}

// wirePhase runs ingest (extra = 0) or fleet (extra registered tenants and
// the status reader): set up, warm up, drive both feeders for window, then
// check that every event and tenant is accounted for.
func (w *run) wirePhase(extra int, window time.Duration, tr *tracer) *result {
	r := newResult()
	reader := extra > 0
	// Harness buffers are sized up front and exist before the heap baseline,
	// so heap_bytes_per_tenant counts only what the system retains.
	lats := make([][]time.Duration, feeders)
	for i := range lats {
		lats[i] = make([]time.Duration, 0, int(window.Seconds()*4000)+64)
	}
	rr := newReaderResult(window)
	plan := planFleet(w.seed, extra)
	heap0 := heapAfterGC()
	t0 := time.Now()
	rig, err := setupWire(w.dirs.next(), tr, w.seed, plan)
	if err != nil {
		r.attempted++
		r.fail("setup: %v", err)
		return r
	}
	r.vals["setup_s"] = time.Since(t0).Seconds()
	sys := rig.sys

	derr := rig.drive(time.Now().Add(warmup), nil)
	for i, f := range rig.feeders {
		f.lat = lats[i]
	}
	p0 := takeProbe(sys, tr)
	deadline := p0.at.Add(window)
	done := make(chan struct{})
	go func() {
		if reader {
			runReader(sys, p0.at, deadline, tr, rr)
		}
		close(done)
	}()
	if derr == nil {
		derr = rig.drive(deadline, tr)
	}
	p1 := takeProbe(sys, tr)
	<-done
	r.setHeap(sys, heap0)
	var lat []time.Duration
	for _, f := range rig.feeders {
		lat = append(lat, f.lat...)
	}
	r.setPcts("latency", lat, "us", 50)
	r.setPcts("loadgen.latency", lat, "us", 95, 99)
	r.setRates(p0, p1, p1.wire.Events-p0.wire.Events)
	if reader {
		r.status, r.age = rr.status, rr.age
		r.vals["loadgen.reader_late_p90_us"] = float64(stats.Percentile(sortedCopy(rr.late), 90)) / 1e3
		r.vals["telemetry.scrape_ms_p50"] = float64(stats.Percentile(sortedCopy(rr.scrape), 50)) / 1e6
		r.vals["core.snapshot_build_ms_max"] = float64(rr.buildMax) / 1e6
	}

	// Correctness: every event a feeder sent was admitted or shed, the
	// final pong agrees, and the status view lists every tenant.
	if derr != nil {
		r.fail("feeders: %v", derr)
	}
	var sent int64
	for _, f := range rig.feeders {
		sent += f.sent
		r.attempted += int64(f.seq)
	}
	pong, perr := rig.feeders[0].pong()
	st := sys.wsrv.Stats()
	r.attempted += sent + int64(len(rr.status))
	r.failed += sent - st.Events - st.ShedConn - st.ShedGlobal
	switch {
	case perr != nil:
		r.fail("final barrier: %v", perr)
	case sent != st.Events+st.ShedConn+st.ShedGlobal:
		r.fail("events: sent %d, applied %d + shed %d", sent, st.Events, st.ShedConn+st.ShedGlobal)
	case pong.Events+pong.ShedConn+pong.ShedGlobal != sent:
		r.fail("events: sent %d, final pong accounts for %d", sent, pong.Events+pong.ShedConn+pong.ShedGlobal)
	}
	if st.Errors != 0 {
		r.fail("wire errors: %d", st.Errors)
	}
	time.Sleep(sys.mgr.SelfStats().SnapshotInterval) // let the view go stale so it is rebuilt
	view := sys.mgr.StatusView()
	want, got := map[string]int{}, map[string]int{}
	for i := range rig.feeders {
		want[feederLabel(i)]++
	}
	for _, p := range rig.plan {
		for _, t := range p {
			want[t.label]++
		}
	}
	hib := 0
	for _, s := range view.Snapshots {
		got[s.Label]++
		if s.State == core.StateHibernated {
			hib++
		}
	}
	if !maps.Equal(want, got) {
		r.fail("status view lists %d pBoxes, want the %d registered tenants", len(view.Snapshots), rig.tenants)
	}
	if self := sys.mgr.SelfStats().Hibernated; hib != extra || int64(hib) != self {
		r.fail("hibernated: view %d, SelfStats %d, want %d", hib, self, extra)
	}
	r.attempted += 4 // the four checks above

	if tr != nil {
		r.setLayers(sys, p0, p1)
		r.vals["wire.register_us_per_tenant"] = float64(rig.regTime) / 1e3 / float64(rig.tenants)
	}
	r.finish(sys, rig.close())
	return r
}
