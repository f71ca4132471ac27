package main

import "repro/internal/bench"

// This file is the metric and workload catalogue. BENCHMARK.json at the
// repository root repeats it for the driver; TestCatalogueMatchesManifest
// keeps the two identical.

// metricDef names one reported number. Bound is set on end-to-end metrics
// only: the share of the baseline's median by which the metric may get
// worse before compare reports a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the runtime sees; every workload
// reports all of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_ksample", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
}

// workloadDef describes one workload. The constructor is its set-up.
type workloadDef struct {
	Name string
	Why  string
	New  func(env) (instance, error)
}

var workloads = []workloadDef{
	{"table1", "The paper's 13 Table I programs tuned pass after pass: application compute dominates, so runtime optimisations are bypassed and tuning quality is guarded. Closed loop, one driver.", newTable1},
	{"region_wide", "Back-to-back 256-sample unscored regions on a pool of nproc: per-sample core path, agg ring, sched fast path and store reads do the work; per-round cost is amortised 256x. Closed loop.", newRegionWide},
	{"region_rounds", "Fresh tuners each running 256 scored 8-sample rounds with a store write before each, then a 4-way split: per-round set-up, feedback, version bumps and split/merge dominate. Closed loop.", newRegionRounds},
	{"fleet_delta", "Sequential jobs over nproc single-slot workers on unix sockets, a 128 KiB blob shipped once then one knob per round: claim, wire codec, delta ship and result streaming dominate. Closed loop.", newFleetDelta},
	{"service_jobs", "nproc keep-alive HTTP clients each submit 4 small checkpointed jobs to wbtuned's server and follow their SSE streams: admission queue, JSON, SSE and checkpoint writes dominate. Closed loop.", newServiceJobs},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// traceLayers are the span-name prefixes the harness uses; each gets a
// trace.share_<layer> metric.
var traceLayers = []string{"op", "body", "bench", "core", "store", "remote", "jobs", "http", "checkpoint"}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		lo("dist.uniform_draw_ns", "ns"),
		lo("strategy.draw_ns", "ns"),
		lo("strategy.sort_feedback_us", "us"),
		lo("strategy.feedback_len_max", "count"),

		lo("store.get_ns", "ns"),
		lo("store.set_ns", "ns"),
		lo("store.changed_since_us", "us"),
		lo("store.intern_ns", "ns"),
		lo("store.version_bumps", "count"),

		lo("agg.ring_putbatch_ns", "ns"),
		lo("agg.ring_drain_ns", "ns"),
		lo("agg.keyof_ns", "ns"),
		lo("agg.ring_peak", "count"),

		lo("sched.acquire_release_ns", "ns"),
		lo("sched.acquire_contended_ns", "ns"),
		hi("sched.admitted", "count"),
		lo("sched.waited", "count"),
		lo("sched.wait_p50_us", "us"),
		lo("sched.wait_p99_us", "us"),

		lo("core.float_ns", "ns"),
		lo("core.load_ns", "ns"),
		lo("core.commit_ns", "ns"),
		lo("core.region_p50_us", "us"),
		lo("core.region_p99_us", "us"),
		lo("core.round_overhead_us", "us"),
		lo("core.run_setup_us", "us"),
		lo("core.split_wait_us", "us"),
		hi("core.samples", "count"),
		hi("core.rounds", "count"),
		lo("core.retries", "count"),
		lo("core.timeouts", "count"),
		lo("core.spec_encode_ns", "ns"),
		lo("core.spec_decode_ns", "ns"),

		lo("remote.wire_task_encode_ns", "ns"),
		lo("remote.wire_task_decode_ns", "ns"),
		lo("remote.wire_results_encode_ns", "ns"),
		lo("remote.wire_results_decode_ns", "ns"),
		lo("remote.wire_frame_roundtrip_ns", "ns"),
		lo("remote.wire_mux_roundtrip_1mib_us", "us"),
		lo("remote.begin_round_us", "us"),
		lo("remote.execute_p50_us", "us"),
		lo("remote.execute_p99_us", "us"),
		lo("remote.end_round_us", "us"),
		lo("remote.end_job_us", "us"),
		lo("remote.add_conn_us", "us"),
		lo("remote.dispatch_p50_us", "us"),
		lo("remote.rpc_p50_us", "us"),
		lo("remote.snapshot_bytes_full", "B"),
		lo("remote.snapshot_bytes_delta", "B"),
		lo("remote.delta_fallbacks", "count"),
		hi("remote.affinity_hit_ratio", "ratio"),
		lo("remote.worker_failures", "count"),
		lo("remote.wire_bytes_per_sample", "B"),

		lo("checkpoint.encode_us", "us"),
		lo("checkpoint.decode_us", "us"),
		lo("checkpoint.state_bytes", "B"),
		lo("checkpoint.save_p50_us", "us"),
		lo("checkpoint.save_p99_us", "us"),
		hi("checkpoint.saves", "count"),
		lo("checkpoint.errors", "count"),
		lo("checkpoint.resume_us", "us"),

		lo("jobs.submit_us", "us"),
		lo("jobs.queue_wait_p50_ms", "ms"),
		lo("jobs.queue_wait_p99_ms", "ms"),
		lo("jobs.run_direct_ms", "ms"),
		lo("jobs.control_plane_share", "ratio"),
		lo("jobs.refused", "count"),
		lo("jobs.queue_depth_max", "count"),
		hi("jobs.jobs_per_s", "1/s"),

		lo("http.submit_p50_ms", "ms"),
		lo("http.get_p50_ms", "ms"),
		lo("http.sse_open_ms", "ms"),
		lo("http.job_p50_ms", "ms"),
		lo("http.job_p99_ms", "ms"),
		lo("http.first_round_p50_ms", "ms"),
		lo("http.first_round_p99_ms", "ms"),
		lo("http.body_bytes_per_job", "B"),
	}
	for _, b := range bench.All() {
		out = append(out, lo(programMetric(b.Name()), "ms"))
	}
	out = append(out,
		lo("bench.samples_per_pass", "count"),
		lo("bench.pass_s", "s"),
		lo("bench.work_units", "count"),
		hi("opentuner.evals_per_s", "1/s"),
		hi("opentuner.ot_over_wb_work", "x"),

		lo("proc.allocs_per_sample", "count"),
		lo("proc.bytes_per_sample", "B"),
		lo("proc.gc_pause_ms", "ms"),
		lo("proc.goroutines_peak", "count"),
		lo("proc.peak_rss_mb", "MB"),
		lo("proc.trace_overhead_pct", "%"),
		hi("proc.traced_samples_per_s", "1/s"),
	)
	for _, l := range traceLayers {
		out = append(out, lo("trace.share_"+l, "%"))
	}
	return append(out, lo("trace.spans", "count"))
}

// programMetric is the per-layer metric holding one Table I program's
// tuning time; program names lose their spaces.
func programMetric(program string) string {
	b := []byte("bench." + program + "_ms")
	for i, c := range b {
		if c == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}
