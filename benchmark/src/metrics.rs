//! Metric names and units, as `BENCHMARK.json` lists them (the package's
//! test holds the two equal), and the small statistics the reports use.

/// End-to-end metrics: printed by `--trace 0`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("sim_steps_per_s", "steps/s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by `--trace 1`. The prefix is the layer
/// (crate). A metric that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 102] = [
    // tcf-lang
    ("lang.lex_s", "s"),
    ("lang.parse_s", "s"),
    ("lang.codegen_s", "s"),
    ("lang.src_bytes", "bytes"),
    ("lang.tokens", "count"),
    ("lang.bytes_per_s", "bytes/s"),
    // tcf-isa
    ("isa.encode_s", "s"),
    ("isa.decode_s", "s"),
    ("isa.assemble_s", "s"),
    ("isa.instrs", "count"),
    ("isa.code_words", "count"),
    ("isa.listing_ns_per_instr_1k", "ns"),
    ("isa.listing_ns_per_instr_4k", "ns"),
    ("isa.listing_roundtrip_fail", "count"),
    // tcf-core: the machine from outside
    ("core.build_s", "s"),
    ("core.init_s", "s"),
    ("core.run_s", "s"),
    ("core.readback_s", "s"),
    ("core.metrics_s", "s"),
    ("core.steps", "count"),
    ("core.ops", "count"),
    ("core.ops_per_s", "1/s"),
    ("core.step_us_p50", "us"),
    ("core.step_us_p99", "us"),
    ("core.step_us_max", "us"),
    ("core.allocs_per_step", "1/step"),
    ("core.alloc_bytes_per_step", "bytes/step"),
    ("core.live_flows_max", "count"),
    ("core.par2_speedup_x", "x"),
    // tcf-core: compression, useful against attempted
    ("core.decay_total", "count"),
    ("core.decay_setthick", "count"),
    ("core.decay_lane_write", "count"),
    ("core.decay_mem_reply", "count"),
    ("core.decay_mask_runs", "count"),
    ("core.decay_fault", "count"),
    ("core.decay_balanced_resume", "count"),
    ("core.decay_async_slice", "count"),
    ("core.slices_compressed", "count"),
    ("core.slices_perlane", "count"),
    ("core.mask_hits", "count"),
    ("core.mask_misses", "count"),
    ("core.coalesce_hits", "count"),
    ("core.coalesce_misses", "count"),
    // tcf-core: kernels, direct calls
    ("core.alu_lanes_ns_per_lane", "ns"),
    ("core.select_lanes_ns_per_lane", "ns"),
    ("core.fill_lanes_ns_per_lane", "ns"),
    ("core.write_lanes_ns_per_lane", "ns"),
    ("core.affine_alu_ns_per_op", "ns"),
    // tcf-mem
    ("mem.bulk_ns_per_word", "ns"),
    ("mem.perlane_ns_per_ref", "ns"),
    ("mem.shard_ns_per_ref", "ns"),
    ("mem.local_ns_per_ref", "ns"),
    ("mem.refs", "count"),
    ("mem.combined", "count"),
    ("mem.max_module_load", "count"),
    ("mem.bulk_fast", "count"),
    ("mem.bulk_expanded", "count"),
    ("mem.bulk_expanded_lanes", "count"),
    // tcf-net
    ("net.send_ns_per_msg", "ns"),
    ("net.send_on_ns_per_msg", "ns"),
    ("net.replay_tail_ns_per_call", "ns"),
    ("net.msgs", "count"),
    ("net.hops_total", "count"),
    ("net.queue_cycles_total", "cycles"),
    ("net.route_sends", "count"),
    // tcf-machine
    ("machine.pipe_ns_per_unit_one", "ns"),
    ("machine.pipe_ns_per_run_compute", "ns"),
    ("machine.pipe_ns_per_run_shared", "ns"),
    ("machine.pipe_traced_ns_per_unit", "ns"),
    ("machine.buffer_ns_per_activate", "ns"),
    ("machine.issued", "count"),
    ("machine.bubbles", "count"),
    ("machine.util", "ratio"),
    ("machine.fetches", "count"),
    ("machine.buffer_miss_ratio", "ratio"),
    // tcf-obs
    ("obs.record_x", "x"),
    ("obs.trace_events", "count"),
    ("obs.flow_events", "count"),
    ("obs.events_clone_s", "s"),
    ("obs.chrome_s", "s"),
    ("obs.chrome_bytes", "bytes"),
    ("obs.stream_drain_s", "s"),
    ("obs.stream_bytes", "bytes"),
    ("obs.stream_parse_s", "s"),
    ("obs.replay_s", "s"),
    ("obs.metrics_json_s", "s"),
    ("obs.dropped", "count"),
    // tcf-pram, the only reference model in the repo
    ("pram.run_s", "s"),
    ("pram.ops_per_s", "1/s"),
    ("pram.cycle_ratio", "ratio"),
    // Self-time share of the traced pass per layer, from the spans
    ("share.lang", "ratio"),
    ("share.isa", "ratio"),
    ("share.core", "ratio"),
    ("share.obs", "ratio"),
    ("share.bench", "ratio"),
    // the benchmark itself
    ("bench.trace_overhead_x", "x"),
    ("bench.span_coverage", "ratio"),
    ("bench.host_nproc", "count"),
    ("bench.samples", "passes"),
    ("bench.fail_share", "ratio"),
    ("bench.stats_digest", "hash48"),
    ("bench.setup_s", "s"),
];

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear interpolation between order statistics; `xs` need not be sorted
/// but must hold a sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
