package main

// metric names one reported figure and its unit. The lists below are the
// ones BENCHMARK.json declares; main_test.go keeps the two in step.
type metric struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload.
// latency_p50_us is the workload's closed-loop request: the frame barrier
// round trip on ingest and fleet, the victim's request on tickets. Its 95th
// and 99th percentiles are per-layer loadgen.latency_* figures: on ingest
// they follow the host's steal time far past any bound. events_per_s counts
// events the wire server applied on ingest and fleet, and state events the
// manager received from the case's clients on tickets. cpu_ns_per_event is
// the process's CPU time per event counted in events_per_s.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"latency_p50_us", "us"},
	{"heap_bytes_per_tenant", "bytes"},
	{"cpu_ns_per_event", "ns"},
}

// perLayer is printed by every traced run. A layer that does no work in a
// workload reports 0 there: the wire tier on tickets, Algorithm 1 on ingest,
// the status reader outside fleet, the vanilla reference outside tickets.
var perLayer = append([]metric{
	{"wire.encode_ns_per_event", "ns"},
	{"wire.server_busy_share", "fraction"},
	{"wire.bytes_per_event", "bytes"},
	{"wire.frames", "count"},
	{"wire.shed_events", "count"},
	{"wire.errors", "count"},
	{"wire.register_us_per_tenant", "us"},
	{"core.events_per_flush", "events"},
	{"core.spool_overflows", "count"},
	{"core.shard_locks_per_event", "count"},
	{"core.contention_revocations", "count"},
	{"core.verdict_p50_us", "us"},
	{"core.verdict_p99_us", "us"},
	{"core.actions", "count"},
	{"core.penalty_p50_us", "us"},
	{"core.penalty_sleep_share", "fraction"},
	{"core.snapshot_builds", "count"},
	{"core.snapshot_cache_hits", "count"},
	{"core.snapshot_build_ms_mean", "ms"},
	{"core.snapshot_build_ms_max", "ms"},
	{"core.hibernated", "count"},
	{"core.wakes", "count"},
	{"observer.chain_ns_per_event", "ns"},
	{"flightrec.self_ns_per_event", "ns"},
	{"telemetry.collector_ns_per_event", "ns"},
	{"flightrec.incidents", "count"},
	{"flightrec.dropped", "count"},
	{"telemetry.scrape_ms_p50", "ms"},
	{"isolation.event_ns_p50", "ns"},
	{"isolation.event_ns_p99", "ns"},
	{"isolation.end_ns_p50", "ns"},
	{"isolation.gate_wait_ms", "ms"},
	{"vres.victim_wait_p95_us", "us"},
	{"vres.noisy_hold_p95_us", "us"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"reader.status_p50_us", "us"},
	{"reader.status_p90_us", "us"},
	{"reader.status_age_p90_ms", "ms"},
	{"loadgen.latency_p95_us", "us"},
	{"loadgen.latency_p99_us", "us"},
	{"loadgen.reader_late_p90_us", "us"},
	{"loadgen.failed_share", "fraction"},
	{"cases.noisy_ops_per_s", "ops/s"},
	{"cases.vanilla_victim_p95_us", "us"},
	{"cases.vanilla_victim_p99_us", "us"},
	{"cases.harm_p95", "ratio"},
	{"cases.harm_p99", "ratio"},
}, overheadMetrics()...)

// overheadMetrics is trace.overhead.<m> for every end-to-end metric m: the
// traced phases' value over the untraced phases'.
func overheadMetrics() []metric {
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metric{"trace.overhead." + m.name, "ratio"}
	}
	return out
}

// unitOf returns the unit of the end-to-end or per-layer metric name.
func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// alias is a figure the report also prints under the name the workload's
// own users know it by.
type alias struct{ name, of string }

var workloadNames = map[string][]alias{
	"ingest": {{"barrier_p50_us", "latency_p50_us"}, {"barrier_p99_us", "loadgen.latency_p99_us"}},
	"fleet": {{"barrier_p50_us", "latency_p50_us"}, {"barrier_p99_us", "loadgen.latency_p99_us"},
		{"status_p50_us", "reader.status_p50_us"}, {"status_p90_us", "reader.status_p90_us"},
		{"status_age_p90_ms", "reader.status_age_p90_ms"}},
	"tickets": {{"victim_p50_us", "latency_p50_us"}, {"victim_p95_us", "loadgen.latency_p95_us"},
		{"victim_p99_us", "loadgen.latency_p99_us"}, {"noisy_ops_per_s", "cases.noisy_ops_per_s"}},
}
