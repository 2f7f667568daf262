//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro all            # everything below, in order
//! repro table1         # Table 1 (analytic matrix + measured costs)
//! repro fig1 .. fig13  # one figure
//! repro figs           # all figures
//! repro progs          # the §4 programming examples P1..P8
//! repro sweeps         # ablations: balanced bound, buffer size,
//!                      #            allocation, network placement
//! repro metrics        # stable-schema JSON metrics dump (tcf-metrics/v1)
//! repro --paper ...    # use the paper-scale machine (P=16, Tp=64)
//! repro ... --trace-out trace.json
//!                      # additionally write a Chrome trace_event file
//!                      # (open in Perfetto / chrome://tracing)
//! repro ... --stream events.ndjson
//!                      # additionally stream the demo run's events
//!                      # incrementally (batched cursor drains) as
//!                      # tcf-obs-stream/v2 NDJSON; the file replays
//!                      # through the batch exporters byte-identically
//! repro ... --force    # overwrite existing output files (repro refuses
//!                      # to clobber them otherwise)
//! ```

use std::env;
use std::fs;
use std::process::ExitCode;

use tcf_bench::{figures, progs, report::TextTable, table1, workloads};
use tcf_core::{Allocation, Variant};
use tcf_machine::MachineConfig;
use tcf_mem::ModuleMap;

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    args.retain(|a| a != "--paper");
    let force = args.iter().any(|a| a == "--force");
    args.retain(|a| a != "--force");
    let mut trace_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            eprintln!("--trace-out needs a file argument");
            return ExitCode::FAILURE;
        }
        trace_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut stream_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--stream") {
        if i + 1 >= args.len() {
            eprintln!("--stream needs a file argument");
            return ExitCode::FAILURE;
        }
        stream_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let config = if paper {
        tcf_bench::paper_config()
    } else {
        tcf_bench::small_config()
    };
    if let Some(extra) = args.get(1) {
        eprintln!("unexpected argument `{extra}`");
        return ExitCode::FAILURE;
    }
    let what = args.first().map(String::as_str).unwrap_or("all");

    // `metrics` is machine-readable: keep stdout pure JSON so the output
    // pipes straight into jq and friends; the banner goes to stderr.
    if what == "metrics" {
        eprintln!(
            "# extended PRAM-NUMA reproduction -- machine: P={}, Tp={}, R={}",
            config.groups, config.threads_per_group, config.regs_per_thread
        );
    } else {
        println!(
            "# extended PRAM-NUMA reproduction -- machine: P={}, Tp={}, R={}\n",
            config.groups, config.threads_per_group, config.regs_per_thread
        );
    }

    match what {
        "all" => {
            println!("{}", table1::report(&config));
            println!("{}", figures::all(&config));
            println!("{}", progs::report(&config));
            println!("{}", sweeps(&config));
            println!("{}", scaling());
        }
        "table1" => println!("{}", table1::report(&config)),
        "figs" => println!("{}", figures::all(&config)),
        "progs" => println!("{}", progs::report(&config)),
        "sweeps" => println!("{}", sweeps(&config)),
        "scaling" => println!("{}", scaling()),
        "metrics" => println!("{}", tcf_bench::trace_export::metrics_demo(&config)),
        other => {
            if let Some(n) = other
                .strip_prefix("fig")
                .and_then(|n| n.parse::<usize>().ok())
            {
                match figures::figure(n, &config) {
                    Some(s) => println!("{s}"),
                    None => {
                        eprintln!("no figure {n} (1..=13)");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                eprintln!(
                    "unknown experiment `{other}`; try \
                     all|table1|figs|fig<N>|progs|sweeps|scaling|metrics"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = trace_out {
        let json = tcf_bench::trace_export::chrome_trace_demo(&config);
        if let Err(e) = write_output(&path, &json, force) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Chrome trace ({} bytes) to {path}", json.len());
    }
    if let Some(path) = stream_out {
        let ndjson = tcf_bench::trace_export::stream_demo(&config);
        if let Err(e) = write_output(&path, &ndjson, force) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let lines = ndjson.lines().count();
        println!(
            "streamed {lines} NDJSON lines ({} bytes) to {path}",
            ndjson.len()
        );
    }
    ExitCode::SUCCESS
}

/// Writes an output artifact, refusing to clobber an existing file unless
/// `--force` was given.
fn write_output(path: &str, contents: &str, force: bool) -> Result<(), String> {
    if !force && fs::metadata(path).is_ok() {
        return Err(format!(
            "{path} already exists; pass --force to overwrite it"
        ));
    }
    fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Machine-size scaling: the same thick workload on P = 1..16 groups.
fn scaling() -> String {
    use tcf_net::Topology;
    let mut out =
        String::from("== Scaling: thick vector add (4096 elements) vs machine size ==\n\n");
    let size = 4096;
    let mut t = TextTable::new(vec![
        "P (groups)",
        "total threads",
        "cycles",
        "speedup vs P=1",
    ]);
    let rows = tcf_bench::parallel::par_map(vec![1usize, 2, 4, 8, 16], |p| {
        let mut c = tcf_bench::small_config();
        c.groups = p;
        c.topology = Topology::Crossbar { nodes: p };
        let mut m = workloads::tcf_machine(
            &c,
            Variant::SingleInstruction,
            workloads::tcf_vector_add(size),
        );
        workloads::init_arrays_tcf(&mut m, size);
        let s = m.run(10_000_000).unwrap();
        workloads::check_vector_add(|a| m.peek(a).unwrap(), size);
        (p, s.cycles)
    });
    let base = rows[0].1 as f64;
    for (p, cycles) in rows {
        t.row(vec![
            p.to_string(),
            (p * 16).to_string(),
            cycles.to_string(),
            format!("{:.2}x", base / cycles as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(horizontal allocation spreads the flow; speedup tracks P until memory-bound)\n");
    out
}

/// Design-choice ablations called out in DESIGN.md §7.
fn sweeps(config: &MachineConfig) -> String {
    let mut out = String::from("== Ablation sweeps ==\n\n");

    // Balanced bound sweep: synchronization overhead vs balance.
    out.push_str("-- Balanced variant bound sweep (vector add, size = 4*P*Tp) --\n");
    let size = 4 * config.total_threads();
    let mut t = TextTable::new(vec!["bound b", "steps", "cycles"]);
    // Hashed placement, so the sweep measures the bound rather than the
    // accidental perfect module locality that interleaved placement gives
    // rank-contiguous slices (a real alignment phenomenon, but not the
    // quantity under study here).
    let mut sweep_cfg = config.clone();
    sweep_cfg.module_map = ModuleMap::linear(11);
    let bounds = vec![1usize, 2, 4, 8, 16, 64];
    let rows = tcf_bench::parallel::par_map(bounds, |bound| {
        let mut m = workloads::tcf_machine(
            &sweep_cfg,
            Variant::Balanced { bound },
            workloads::tcf_vector_add(size),
        );
        workloads::init_arrays_tcf(&mut m, size);
        let s = m.run(5_000_000).unwrap();
        workloads::check_vector_add(|a| m.peek(a).unwrap(), size);
        (bound, s.steps, s.cycles)
    });
    for (bound, steps, cycles) in rows {
        t.row(vec![
            bound.to_string(),
            steps.to_string(),
            cycles.to_string(),
        ]);
    }
    let mut m = workloads::tcf_machine(
        &sweep_cfg,
        Variant::SingleInstruction,
        workloads::tcf_vector_add(size),
    );
    workloads::init_arrays_tcf(&mut m, size);
    let s = m.run(5_000_000).unwrap();
    t.row(vec![
        "unbounded (SI)".to_string(),
        s.steps.to_string(),
        s.cycles.to_string(),
    ]);
    out.push_str(&t.render());

    // Allocation sweep.
    out.push_str("\n-- Horizontal vs vertical allocation (thick vector add) --\n");
    let mut t = TextTable::new(vec!["size", "horizontal cycles", "vertical cycles"]);
    for mult in [1usize, 4, 16] {
        let size = mult * config.total_threads();
        let run = |alloc| {
            let mut m = workloads::tcf_machine_alloc(
                config,
                Variant::SingleInstruction,
                workloads::tcf_vector_add(size),
                alloc,
            );
            workloads::init_arrays_tcf(&mut m, size);
            m.run(5_000_000).unwrap().cycles
        };
        t.row(vec![
            size.to_string(),
            run(Allocation::Horizontal).to_string(),
            run(Allocation::Vertical).to_string(),
        ]);
    }
    out.push_str(&t.render());

    // Module placement: interleaved vs hashed under strided traffic.
    out.push_str("\n-- Shared-memory placement: interleaved vs randomized hash --\n");
    let size = 2 * config.total_threads();
    let stride_src = format!(
        "shared int a[{}] @ {};
         void main() {{
             #{size};
             a[. * {p}] = .;
         }}",
        size * config.groups,
        workloads::A_BASE,
        p = config.groups,
    );
    let program = tcf_lang::compile(&stride_src).unwrap();
    let mut t = TextTable::new(vec![
        "placement",
        "cycles",
        "queue p50",
        "queue p95",
        "queue max",
    ]);
    for (map, name) in [
        (ModuleMap::Interleaved, "interleaved (addr mod M)"),
        (ModuleMap::linear(7), "linear hash"),
    ] {
        let mut c2 = config.clone();
        c2.module_map = map;
        let mut m = tcf_core::TcfMachine::new(c2, Variant::SingleInstruction, program.clone());
        let s = m.run(5_000_000).unwrap();
        t.row(vec![
            name.to_string(),
            s.cycles.to_string(),
            s.network.p50_queue_cycles().to_string(),
            s.network.p95_queue_cycles().to_string(),
            s.network.max_queue_cycles.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "(stride-{} writes hammer one module when interleaved; \
         the queue-delay percentiles show the congestion tail)\n",
        config.groups
    ));

    // ILP-TLP co-execution (§3.2): functional units per cycle.
    out.push_str("\n-- ILP-TLP co-execution: functional units per cycle (§3.2) --\n");
    let size = 4 * config.total_threads();
    let mut t = TextTable::new(vec![
        "ilp width",
        "cycles (thick add)",
        "cycles (NUMA loop)",
    ]);
    for width in [1usize, 2, 4, 8] {
        let mut c2 = config.clone();
        c2.ilp_width = width;
        let mut m = tcf_core::TcfMachine::new(
            c2.clone(),
            Variant::SingleInstruction,
            workloads::tcf_vector_add(size),
        );
        workloads::init_arrays_tcf(&mut m, size);
        let thick = m.run(5_000_000).unwrap().cycles;
        workloads::check_vector_add(|a| m.peek(a).unwrap(), size);
        let mut m = tcf_core::TcfMachine::new(
            c2,
            Variant::SingleInstruction,
            workloads::tcf_numa_seq(300, 8),
        );
        let seq = m.run(5_000_000).unwrap().cycles;
        t.row(vec![width.to_string(), thick.to_string(), seq.to_string()]);
    }
    out.push_str(&t.render());
    out.push_str("(thick data parallelism fills the extra units; the sequential stream cannot)\n");

    // Operand storage: cached register file capacity (§3.3).
    out.push_str("\n-- Cached register file capacity (operand storage, §3.3) --\n");
    let spill_src = format!(
        "shared int out[4096] @ {};
         void main() {{
             #1024;
             int a = . * 3;
             int b = a + .;
             int c = b * a;
             out[.] = c;
         }}",
        workloads::C_BASE,
    );
    let spill_prog = tcf_lang::compile(&spill_src).unwrap();
    let mut t = TextTable::new(vec!["reg cache words", "spill refs", "cycles"]);
    for cache in [0usize, 4096, 1024, 256, 64] {
        let mut c2 = config.clone();
        c2.reg_cache_words = cache;
        let mut m = tcf_core::TcfMachine::new(c2, Variant::SingleInstruction, spill_prog.clone());
        let s = m.run(5_000_000).unwrap();
        t.row(vec![
            if cache == 0 {
                "unlimited".to_string()
            } else {
                cache.to_string()
            },
            s.machine.spill_refs.to_string(),
            s.cycles.to_string(),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&issue_window_sweep());
    out.push_str(&network_sweep());
    out
}

/// Figure 6 as a sweep: how long an issue window must be before it
/// covers the memory round trip.
fn issue_window_sweep() -> String {
    use tcf_machine::{GroupPipeline, IssueUnit, MachineStats, Trace};
    use tcf_net::{Network, Topology};
    let mut out = String::from(
        "\n-- Issue-window length vs utilization (Figure 6; round trip ~6 cycles) --\n",
    );
    let mut t = TextTable::new(vec!["units", "utilization"]);
    for units in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut net = Network::new(Topology::Crossbar { nodes: 4 }, 2);
        let pipe = GroupPipeline::new(0, 2, 1);
        let work: Vec<IssueUnit> = (0..units)
            .map(|i| IssueUnit::shared_mem(1, i, 1 + (i % 3)))
            .collect();
        let mut stats = MachineStats::default();
        let step = pipe.run_step(
            0,
            &work,
            false,
            &mut net,
            &mut Trace::disabled(),
            &mut stats,
        );
        let utilization = units as f64 / step.cycles() as f64;
        t.row(vec![units.to_string(), format!("{utilization:.2}")]);
    }
    out.push_str(&t.render());
    out.push_str("(utilization saturates once the window covers the memory round trip)\n");
    out
}

/// Distance-aware network behaviour: all-to-one against uniform traffic
/// on three topologies of 16 nodes.
fn network_sweep() -> String {
    use tcf_net::{Network, Topology};
    let mut out = String::from(
        "\n-- Network: completion cycle of all-to-one vs uniform traffic (16 nodes) --\n",
    );
    let mut t = TextTable::new(vec!["topology", "all-to-one", "uniform (8 rounds)"]);
    let mesh = Topology::Mesh2D {
        width: 4,
        height: 4,
    };
    for (name, topology) in [
        ("ring16", Topology::Ring { nodes: 16 }),
        ("mesh4x4", mesh),
        ("crossbar16", Topology::Crossbar { nodes: 16 }),
    ] {
        let n = topology.nodes();
        let to_one: Vec<(usize, usize)> = (1..n).map(|s| (s, 0)).collect();
        let (_, all_to_one) = Network::new(topology, 1).send_batch(&to_one, 0);
        // Deterministic pseudo-random pairs (LCG).
        let mut net = Network::new(topology, 1);
        let (mut x, mut uniform) = (12345u64, 0);
        for round in 0..8 {
            let msgs: Vec<(usize, usize)> = (0..n)
                .map(|s| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s, (x >> 33) as usize % n)
                })
                .collect();
            (_, uniform) = net.send_batch(&msgs, round * 64);
        }
        t.row(vec![
            name.to_string(),
            all_to_one.to_string(),
            uniform.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(all-to-one exposes the destination bottleneck; distance shows in the ring)\n");
    out
}
