package main

// metricDef is one entry of BENCHMARK.json's metric lists. The lists here
// are the source; `-manifest` prints BENCHMARK.json from them and the
// self-test checks the committed file still agrees.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, with the share of the
// parent's median each may worsen by. Every workload reports every one.
// The timing bounds are as wide as the contract allows: it asks for three
// times the spread seen between ten runs, and on the sandbox the workloads
// were sized on that spread reached 7 %. README.md has the readings.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},        // median wall time of set-up, warm-up ops included
	{"verdict_s", "s", lower, 0.25},      // median wall time of one op, inputs in hand to checked answer
	{"verdict_tail_s", "s", lower, 0.25}, // the workload's tailPct percentile of the same samples
	{"ops_per_s", "1/s", higher, 0.25},   // ops completed over the measured window
	{"rss_mb", "MB", lower, 0.10},        // median over rounds of VmRSS at the round's end
}

// perLayer is what the traced run reports, by module.
var perLayer = []metricDef{
	{Name: "dsl.parse_s", Unit: "s", Better: lower},
	{Name: "dsl.parse_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "dsl.format_s", Unit: "s", Better: lower},

	{Name: "core.generate_s.stalling", Unit: "s", Better: lower},
	{Name: "core.generate_s.nonstalling", Unit: "s", Better: lower},
	{Name: "core.generate_s.deferred", Unit: "s", Better: lower},
	{Name: "core.generated_states", Unit: "count", Better: lower},
	{Name: "core.generated_transitions", Unit: "count", Better: lower},

	{Name: "analyze.spec_s", Unit: "s", Better: lower},
	{Name: "analyze.protocol_s", Unit: "s", Better: lower},
	{Name: "analyze.findings", Unit: "count", Better: lower},

	{Name: "depend.new_s", Unit: "s", Better: lower},
	{Name: "depend.fusible_classes", Unit: "count", Better: higher},
	{Name: "depend.invisible_classes", Unit: "count", Better: higher},

	{Name: "murphi.emit_s", Unit: "s", Better: lower},
	{Name: "murphi.emit_bytes", Unit: "B", Better: lower},

	{Name: "engine.rules_ns", Unit: "ns", Better: lower},
	{Name: "engine.clone_ns", Unit: "ns", Better: lower},
	{Name: "engine.apply_ns", Unit: "ns", Better: lower},
	{Name: "engine.canonical_ns", Unit: "ns", Better: lower},
	{Name: "engine.fingerprint_ns", Unit: "ns", Better: lower},
	{Name: "engine.rules_per_state", Unit: "count", Better: lower},

	{Name: "store.insert_ns", Unit: "ns", Better: lower},
	{Name: "store.lookup_hit_ns", Unit: "ns", Better: lower},
	{Name: "store.lookup_miss_ns", Unit: "ns", Better: lower},
	{Name: "store.bytes_per_key", Unit: "B", Better: lower},

	{Name: "verify.states", Unit: "count", Better: lower},
	{Name: "verify.edges", Unit: "count", Better: lower},
	{Name: "verify.depth", Unit: "count", Better: lower},
	{Name: "verify.states_per_s", Unit: "1/s", Better: higher},
	{Name: "verify.bytes_per_state", Unit: "B", Better: lower},
	{Name: "verify.allocs_per_state", Unit: "count", Better: lower},
	{Name: "verify.liveness_s", Unit: "s", Better: lower},
	{Name: "verify.level_max_s", Unit: "s", Better: lower},
	{Name: "verify.reduce_ratio", Unit: "ratio", Better: higher},
	{Name: "verify.emitted_over_candidates", Unit: "ratio", Better: lower},
	{Name: "verify.fused_steps", Unit: "count", Better: higher},
	{Name: "verify.canon_fast_share", Unit: "ratio", Better: higher},
	{Name: "verify.canon_fallbacks", Unit: "count", Better: lower},
	{Name: "verify.pauto_speedup", Unit: "ratio", Better: higher},
	{Name: "verify.fp_over_exact_s", Unit: "ratio", Better: lower},

	{Name: "litmus.suite_s", Unit: "s", Better: lower},
	{Name: "litmus.states", Unit: "count", Better: lower},
	{Name: "litmus.states_per_s", Unit: "1/s", Better: higher},
	{Name: "litmus.sample_runs_per_s", Unit: "1/s", Better: higher},

	{Name: "sim.steps_per_s", Unit: "1/s", Better: higher},

	{Name: "fuzz.seed_s", Unit: "s", Better: lower},
	{Name: "fuzz.share.litmus", Unit: "ratio", Better: lower},
	{Name: "fuzz.share.por", Unit: "ratio", Better: lower},
	{Name: "fuzz.share.lint", Unit: "ratio", Better: lower},
	{Name: "fuzz.share.sim", Unit: "ratio", Better: lower},
	{Name: "fuzz.ran_checks", Unit: "count", Better: lower},
	{Name: "fuzz.cached_checks", Unit: "count", Better: higher},

	{Name: "verifycache.key_s", Unit: "s", Better: lower},
	{Name: "verifycache.get_hit_s", Unit: "s", Better: lower},
	{Name: "verifycache.put_s", Unit: "s", Better: lower},

	{Name: "jobstore.mem_put_s", Unit: "s", Better: lower},
	{Name: "jobstore.wal_put_s", Unit: "s", Better: lower},
	{Name: "jobstore.wal_replay_s", Unit: "s", Better: lower},
	{Name: "jobstore.wal_bytes_per_record", Unit: "B", Better: lower},

	{Name: "bus.deliver_s", Unit: "s", Better: lower},
	{Name: "bus.msgs_per_s", Unit: "1/s", Better: higher},
	{Name: "bus.queue_claim_s", Unit: "s", Better: lower},

	{Name: "service.submit_s", Unit: "s", Better: lower},
	{Name: "service.queue_wait_s", Unit: "s", Better: lower},
	{Name: "service.exec_s", Unit: "s", Better: lower},
	{Name: "service.report_lag_s", Unit: "s", Better: lower},
	{Name: "service.polls_per_job", Unit: "count", Better: lower},
	{Name: "service.result_get_s", Unit: "s", Better: lower},
	{Name: "service.cached_share", Unit: "ratio", Better: higher},
	{Name: "service.retries", Unit: "count", Better: lower},
	{Name: "service.mem_over_wal_ops", Unit: "ratio", Better: lower},
	{Name: "service.overhead_s", Unit: "s", Better: lower},

	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}
