// Command perfbench is the repository's benchmark: it runs pBox as cmd/pboxd
// wires it (observer chain with attribution, flight recorder, wire server,
// telemetry exporter) on one of three workloads, checks the system's outputs
// and prints every metric by name, unit and sample count.
//
//	ingest   two wire feeders, one tenant each, in a closed loop of
//	         2048-event frames
//	fleet    ingest plus 50,000 registered, hibernated tenants and a
//	         10 Hz status reader with a 1 Hz /metrics scrape
//	tickets  case c3 (minidb concurrency tickets) under pBox
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//
// A run builds and measures the system five times, for a fifth of
// --seconds each, and reports each figure's median over the five; setup_s
// is the median of 21 builds, those five and 16 more closed at once. With
// --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics. With --trace 1 the time is split between untraced and
// traced repetitions (and the vanilla reference on tickets) and the JSON
// carries the per-layer metrics. A failed correctness check makes the exit
// status 1. layers.json says what each metric means and which layer moves
// which end-to-end figure.
//
// perfbench is a module of its own (it imports the repository's internal
// packages through a replace directive), so the repository's go test ./...
// does not run it. Its smoke test runs every workload at reduced size:
//
//	cd perfbench && go test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
	"pbox/internal/stats"
)

// reps is how many times a run builds the system and measures it.
// Medians over the repetitions hold steady where one long window drifts
// with the host's load.
const reps = 5

// fleetTenants is how many extra tenants fleet registers.
const fleetTenants = 50000

// setups is how many times a run builds the system to time setup_s: the
// phases' builds and then builds that are closed at once. On ingest and
// tickets a build takes about a millisecond and two builds in a row can
// differ by half, so a median of the phases' five builds alone wanders.
const setups = 21

// run is one invocation's settings.
type run struct {
	workload string
	seed     int64
	tenants  int // extra tenants registered in fleet: fleetTenants, fewer in the smoke test
	dirs     *scratchDirs
}

func main() {
	var (
		workload = flag.String("workload", "", "ingest, fleet or tickets")
		seed     = flag.Int64("seed", 1, "workload seed: feeder keys and fleet labels")
		seconds  = flag.Float64("seconds", 30, "measured seconds, split across repetitions")
		trace    = flag.Int("trace", 0, "1 adds traced repetitions and prints per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench-out", "directory for span files and scratch incident bundles")
	)
	flag.Parse()
	switch *workload {
	case "ingest", "fleet", "tickets":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want ingest, fleet or tickets)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	w := &run{
		workload: *workload, seed: *seed, tenants: fleetTenants,
		dirs: &scratchDirs{root: filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))},
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	total := time.Duration(*seconds * float64(time.Second))
	var ok bool
	if *trace == 0 {
		ok = report(os.Stdout, w.workload, w.measure(total, nil), endToEnd)
	} else {
		// One span file per workload, overwritten by the next traced run,
		// so repeated runs do not pile up traces.
		spans := filepath.Join(*out, "spans-"+*workload+".jsonl")
		ok = report(os.Stdout, w.workload, w.traced(total, spans), perLayer)
	}
	w.dirs.cleanup()
	if !ok {
		os.Exit(1)
	}
}

// extra is how many tenants the workload registers besides the feeders'.
func (w *run) extra() int {
	if w.workload == "fleet" {
		return w.tenants
	}
	return 0
}

func (w *run) phase(window time.Duration, tr *tracer) *result {
	if w.workload == "tickets" {
		return w.ticketsPhase(window, tr)
	}
	return w.wirePhase(w.extra(), window, tr)
}

// setupTime builds the system as the workload's phase does, up to its
// first measured operation, closes it and returns how long the build took.
// Like a phase, it starts from a collected heap.
func (w *run) setupTime(tr *tracer) (time.Duration, error) {
	runtime.GC()
	if w.workload == "tickets" {
		t0 := time.Now()
		sys, err := buildSystem(w.dirs.next(), tr)
		if err != nil {
			return 0, err
		}
		isolation.NewPBox(sys.mgr, core.DefaultRule())
		d := time.Since(t0)
		return d, sys.close()
	}
	plan := planFleet(w.seed, w.extra())
	t0 := time.Now()
	rig, err := setupWire(w.dirs.next(), tr, w.seed, plan)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, rig.close()
}

// measure runs reps phases of total/reps each. Every figure, latency
// percentiles included, is the median of the phases' values, so a stretch
// of host load that spoils fewer than half of the phases does not move it;
// sample counts and attempted and failed operations add up. setup_s is the
// median of setups builds: the phases' and then setupTime's.
func (w *run) measure(total time.Duration, tr *tracer) *result {
	out := newResult()
	per := map[string][]float64{}
	for i := 0; i < reps; i++ {
		r := w.phase(total/reps, tr)
		for k, v := range r.vals {
			per[k] = append(per[k], v)
		}
		for k, n := range r.counts {
			out.counts[k] += n
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.failures = append(out.failures, r.failures...)
		out.status = append(out.status, r.status...)
		out.age = append(out.age, r.age...)
	}
	for i := reps; i < setups; i++ {
		d, err := w.setupTime(tr)
		out.attempted++
		if err != nil {
			out.fail("setup: %v", err)
			continue
		}
		per["setup_s"] = append(per["setup_s"], d.Seconds())
	}
	for k, vs := range per {
		out.vals[k] = median(vs)
	}
	out.counts["setup_s"] = len(per["setup_s"])
	if len(out.status) > 0 {
		out.setPcts("reader.status", out.status, "us", 50, 90)
		out.setPcts("reader.status_age", out.age, "ms", 90)
	}
	return out
}

// traced measures untraced and traced repetitions, each for an equal share
// of total, and on tickets the vanilla reference for another. The
// per-layer figures come from the traced repetitions; trace.overhead.*
// compares the two.
func (w *run) traced(total time.Duration, spanFile string) *result {
	parts := 2
	if w.workload == "tickets" {
		parts = 3
	}
	window := total / time.Duration(parts)
	base := w.measure(window, nil)
	tr := newTracer()
	res := w.measure(window, tr)
	res.attempted += base.attempted
	res.failed += base.failed
	res.failures = append(base.failures, res.failures...)
	for _, m := range endToEnd {
		res.vals["trace.overhead."+m.name] = ratio(res.vals[m.name], base.vals[m.name])
	}
	// The noisy writer's rate and the request tails are reference figures,
	// so they come untraced.
	for _, k := range []string{"cases.noisy_ops_per_s", "loadgen.latency_p95_us", "loadgen.latency_p99_us"} {
		res.vals[k] = base.vals[k]
		if n, ok := base.counts[k]; ok {
			res.counts[k] = n
		}
	}
	res.vals["isolation.event_ns_p50"] = tr.eventNs.pct(50)
	res.vals["isolation.event_ns_p99"] = tr.eventNs.pct(99)
	res.vals["isolation.end_ns_p50"] = tr.endNs.pct(50)
	res.vals["isolation.gate_wait_ms"] = float64(tr.gateNs.Load()) / 1e6
	res.vals["vres.victim_wait_p95_us"] = tr.victimWait.pct(95) / 1e3
	res.vals["vres.noisy_hold_p95_us"] = tr.noisyHold.pct(95) / 1e3
	if w.workload == "tickets" {
		lat, err := vanillaTickets(window)
		res.attempted += int64(len(lat)) + 1
		if err != nil {
			res.fail("%v", err)
		}
		slices.Sort(lat)
		van95 := float64(stats.Percentile(lat, 95)) / 1e3
		van99 := float64(stats.Percentile(lat, 99)) / 1e3
		res.vals["cases.vanilla_victim_p95_us"] = van95
		res.vals["cases.vanilla_victim_p99_us"] = van99
		res.vals["cases.harm_p95"] = ratio(base.vals["loadgen.latency_p95_us"], van95)
		res.vals["cases.harm_p99"] = ratio(base.vals["loadgen.latency_p99_us"], van99)
	}
	res.spans, res.dropped = tr.selfTimes(), tr.dropped
	if err := tr.writeSpans(spanFile); err != nil {
		res.attempted++
		res.fail("write spans: %v", err)
	}
	res.vals["loadgen.failed_share"] = ratio(float64(res.failed), float64(res.attempted))
	return res
}

// report prints names by name, value, unit and sample count, the
// workload's own names for some of them, span self times and failed checks,
// and last the JSON line. It returns whether every check passed.
func report(out io.Writer, workload string, res *result, names []metric) bool {
	metrics := make(map[string]any, len(names))
	for _, m := range names {
		v := res.vals[m.name]
		fmt.Fprintf(out, "%-36s %16.4f %s", m.name, v, m.unit)
		if n, ok := res.counts[m.name]; ok {
			fmt.Fprintf(out, "  (n=%d)", n)
		}
		fmt.Fprintln(out)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, a := range workloadNames[workload] {
		if v, ok := res.vals[a.of]; ok {
			fmt.Fprintf(out, "%-36s %16.4f %s  (= %s, n=%d)\n", a.name, v, unitOf(a.of), a.of, res.counts[a.of])
		}
	}
	fmt.Fprintf(out, "%-36s %16.6f  (%d of %d operations)\n", "failed_share",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, s := range res.spans {
		fmt.Fprintf(out, "span %-28s n=%-7d mean %10.2f us  self %10.2f us\n", s.Name, s.Count, s.MeanUs, s.SelfUs)
	}
	if res.dropped > 0 {
		fmt.Fprintf(out, "spans dropped past the trace bound: %d\n", res.dropped)
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	ok := len(res.failures) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintln(out, string(line))
	return ok
}
